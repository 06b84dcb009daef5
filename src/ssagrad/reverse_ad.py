"""Reverse-mode differentiation as a source transform.

augment(module, f) adds two functions:

    @f__aug(params) -> (results..., blog: tape, vstack: tape)
    @f__pb(blog, vstack, seeds...) -> cotangents of the differentiable
                                      parameters, in parameter order

The forward clone pushes onto two traces.  vstack holds the values the
adjoint rules need (operands or results, per rule).  blog holds branch
decisions: an if pushes the taken flag as its arm finishes; a loop
pushes false before entering and true on every back edge, so the
pullback pops true once per trip and the final false is the signal to
stop.  Keeping decisions off the value trace means an if inside a loop
can never bury the loop's own flags.

The pullback never reads a primal value.  It is built purely from
pops, the seeds, and cotangent arithmetic, walking the source tree in
reverse: straight code runs backwards, an if pops its flag and replays
the recorded arm, a loop becomes a loop driven by popped flags whose
carried state is the cotangents of the forward carried values plus
those of the loop-free values used inside.

Tape traffic itself has structural adjoints (a push reverses to a pop
of the cotangent trace and vice versa), which is what makes the
generated pair differentiable again; second derivatives come from
augmenting @f__grad, a wrapper that runs @f__aug and @f__pb back to
back with a unit seed.
"""

from __future__ import annotations

import numpy as np

from .interp import DEFAULT_STEP_LIMIT, Machine
from .ir import BOOL, F64, TAPE, Function, Instruction, Module, Type
from .ops import OPS, result_type
from .rules import RULES, Rule, saved_values
from .structure import (
    SEmitter,
    SFunc,
    SIf,
    SInstr,
    SWhile,
    flatten,
    free_values,
    splice_function,
    splice_region,
    structurize,
)

# value kinds that carry a cotangent through the pullback: real numbers,
# and traces (their adjoint is a trace of cotangents); batched traces do
# not, second order stays per-sample
CotangentMap = dict[int, object]


class ADError(Exception):
    """A function cannot be differentiated as requested."""


def _carries_cot(ty: Type) -> bool:
    return ty.is_differentiable or ty.kind == "tape"


# ---------------------------------------------------------- inlining


def inline_sfunc(module: Module, fn: Function, _active: tuple[str, ...] = ()) -> SFunc:
    """Structurize a function with every call spliced away."""
    if fn.name in _active:
        raise ADError(f"@{fn.name} is recursive; calls cannot be flattened")
    sf = structurize(fn, module)
    em = SEmitter(fn.name, sf.results, module)
    valmap = {}
    for pv, ty in sf.params:
        valmap[pv] = em.param(sf.vnames.get(pv, "p"), ty)

    def expand(ins: Instruction, args: tuple[int, ...]) -> int:
        callee = module.get(ins.attrs["fn"].name)
        csf = inline_sfunc(module, callee, _active + (fn.name,))
        return splice_function(em, csf, args, expand)[0]

    splice_region(em, sf, sf.region, valmap, expand)
    return em.finish(tuple(valmap[v] for v in sf.ret_vals))


# ------------------------------------------------------ forward clone


def _recorded_rule(sf: SFunc, ins: Instruction) -> Rule | None:
    """The rule to trace for an instruction, if any.

    Both the forward clone and the pullback call this, which is what
    keeps their push and pop sequences aligned.  Rules fire only when
    the result is differentiable; an i64 add is plain bookkeeping.
    """
    if not sf.types[ins.result].is_differentiable:
        return None
    return RULES.get(ins.op)


class _Augmenter:
    def __init__(self, module: Module, sf: SFunc, name: str):
        self.module = module
        self.sf = sf
        self.em = SEmitter(name, sf.results + (TAPE, TAPE), module)

    def build(self) -> SFunc:
        sf, em = self.sf, self.em
        valmap = {}
        for pv, ty in sf.params:
            valmap[pv] = em.param(sf.vnames.get(pv, "p"), ty)
        blog = em.emit("tape_new", (), None, "blog")
        vstack = em.emit("tape_new", (), None, "vstack")
        blog, vstack = self.region(sf.region, valmap, blog, vstack)
        rets = tuple(valmap[v] for v in sf.ret_vals) + (blog, vstack)
        return em.finish(rets)

    def region(self, nodes: list, valmap: dict, blog: int, vstack: int) -> tuple[int, int]:
        for node in nodes:
            if isinstance(node, SInstr):
                blog, vstack = self.instr(node.ins, valmap, blog, vstack)
            elif isinstance(node, SIf):
                blog, vstack = self.branch(node, valmap, blog, vstack)
            else:
                blog, vstack = self.loop(node, valmap, blog, vstack)
        return blog, vstack

    def instr(self, ins: Instruction, valmap: dict, blog: int, vstack: int) -> tuple[int, int]:
        em, sf = self.em, self.sf
        ops = tuple(valmap[o] for o in ins.operands)
        name = sf.vnames.get(ins.result, "t")
        rty = sf.types[ins.result]

        if ins.op == "fused_map":
            pack = em.emit("fused_pack", ops, dict(ins.attrs), name + "_pack")
            valmap[ins.result] = em.emit("unstack", (pack,), {"index": 0, "axis": 0}, name)
            vstack = em.emit("tape_push", (vstack, pack), None, "vs")
            return blog, vstack

        rule = _recorded_rule(sf, ins)
        if rule is not None:
            vid = em.emit(ins.op, ops, dict(ins.attrs), name)
            valmap[ins.result] = vid
            for v in saved_values(rule, ops, vid):
                vstack = em.emit("tape_push", (vstack, v), None, "vs")
            return blog, vstack

        if ins.op == "select" and rty.kind in ("tape", "tapes"):
            raise ADError(f"@{sf.name}: cannot differentiate a select over traces")
        if ins.op == "tape_spread":
            raise ADError(f"@{sf.name}: batched traces cannot be differentiated")
        d = OPS[ins.op]
        if rty.is_differentiable and ins.op not in RULES and not (d.no_cotangent or d.trace):
            raise ADError(f"@{sf.name}: op '{ins.op}' (%{name}) has no derivative rule")

        # ops with no cotangent, integer bookkeeping, and trace traffic pass through
        valmap[ins.result] = em.emit(ins.op, ops, dict(ins.attrs), name)
        return blog, vstack

    def branch(self, node: SIf, valmap: dict, blog: int, vstack: int) -> tuple[int, int]:
        em = self.em
        arm_outs = []
        arm_nodes = []
        for region, args, flag in (
            (node.then_region, node.then_args, True),
            (node.else_region, node.else_args, False),
        ):
            em.push_region()
            ab, av = self.region(region, valmap, blog, vstack)
            f = em.const_bool(flag, "taken")
            ab = em.emit("tape_push", (ab, f), None, "bl")
            arm_nodes.append(em.pop_region())
            arm_outs.append(tuple(valmap[a] for a in args) + (ab, av))
        merged = []
        for mv, mty in node.merged:
            nv = em.fresh(self.sf.vnames.get(mv, "m"), mty)
            valmap[mv] = nv
            merged.append((nv, mty))
        blog2 = em.fresh("blog", TAPE)
        vstack2 = em.fresh("vstack", TAPE)
        merged += [(blog2, TAPE), (vstack2, TAPE)]
        em.append(SIf(valmap[node.cond], arm_nodes[0], arm_outs[0],
                      arm_nodes[1], arm_outs[1], merged))
        return blog2, vstack2

    def loop(self, node: SWhile, valmap: dict, blog: int, vstack: int) -> tuple[int, int]:
        em, sf = self.em, self.sf
        if not node.canonical:
            raise ADError(f"@{sf.name}: loop is not in transformable shape")
        pre = em.const_bool(False, "entered")
        blog = em.emit("tape_push", (blog, pre), None, "bl")

        init = tuple(valmap[a] for a in node.init) + (blog, vstack)
        carried = []
        for cv, cty in node.carried:
            nv = em.fresh(sf.vnames.get(cv, "c"), cty)
            valmap[cv] = nv
            carried.append((nv, cty))
        blog_p = em.fresh("blog", TAPE)
        vstack_p = em.fresh("vstack", TAPE)
        carried += [(blog_p, TAPE), (vstack_p, TAPE)]

        header = []
        for ins in node.header:
            vid = em.fresh(sf.vnames.get(ins.result, "h"), sf.types[ins.result])
            valmap[ins.result] = vid
            header.append(Instruction(vid, ins.op, tuple(valmap[o] for o in ins.operands),
                                      dict(ins.attrs)))

        em.push_region()
        bb, bv = self.region(node.body_region, valmap, blog_p, vstack_p)
        again = em.const_bool(True, "again")
        bb = em.emit("tape_push", (bb, again), None, "bl")
        body_nodes = em.pop_region()
        back = tuple(valmap[a] for a in node.body_args) + (bb, bv)

        exits = []
        for ev, ety in node.exits:
            nv = em.fresh(sf.vnames.get(ev, "x"), ety)
            valmap[ev] = nv
            exits.append((nv, ety))
        blog_x = em.fresh("blog", TAPE)
        vstack_x = em.fresh("vstack", TAPE)
        exits += [(blog_x, TAPE), (vstack_x, TAPE)]
        exit_args = tuple(valmap[a] for a in node.exit_args) + (blog_p, vstack_p)

        em.append(SWhile(carried, init, header, valmap[node.cond], body_nodes, back,
                         exits, exit_args, True))
        return blog_x, vstack_x


# ----------------------------------------------------------- pullback


class _PullbackBuilder:
    """Emits the pullback; it is also the rule backend that ``RULES``
    bodies run on here, so their ops become instructions named ``g``."""

    def __init__(self, module: Module, sf: SFunc, name: str):
        self.module = module
        self.sf = sf
        out = tuple(ty for _, ty in sf.params if ty.is_differentiable)
        self.em = SEmitter(name, out, module)
        # maps a trace vid to the tape_top that reads it, scoped to the
        # region being walked; a pop emits its top and rest side by side
        # in one region, and sibling regions may pop the same source, so
        # the pairing must not leak across region boundaries
        self._level_tops: dict[int, Instruction] = {}

    @staticmethod
    def _scan_level(nodes: list) -> dict[int, Instruction]:
        tops: dict[int, Instruction] = {}
        for node in nodes:
            if isinstance(node, SInstr) and node.ins.op == "tape_top":
                tops[node.ins.operands[0]] = node.ins
        return tops

    def build(self) -> SFunc:
        em, sf = self.em, self.sf
        blog = em.param("blog", TAPE)
        vstack = em.param("vstack", TAPE)
        cot: CotangentMap = {}
        for i, (rv, rty) in enumerate(zip(sf.ret_vals, sf.results)):
            seed = em.param(f"seed{i}", rty)
            if _carries_cot(rty):
                self.acc(cot, rv, seed)
        blog, vstack = self.region(sf.region, cot, blog, vstack)
        em.emit("tape_expect_empty", (blog,), None, "drained")
        em.emit("tape_expect_empty", (vstack,), None, "drained")
        rets = []
        for pv, ty in sf.params:
            if ty.is_differentiable:
                got = cot.get(pv)
                rets.append(self.zero(ty) if got is None else got)
        return em.finish(tuple(rets))

    # the rule backend

    def emit(self, op: str, operands: tuple[int, ...], attrs: dict | None = None) -> int:
        return self.em.emit(op, operands, attrs, "g")

    def type_of(self, vid: int) -> Type:
        return self.em.types[vid]

    # cotangent bookkeeping

    def acc(self, cot: CotangentMap, vid: int, new: int):
        cur = cot.get(vid)
        if cur is None:
            cot[vid] = new
        elif self.em.types[new].kind == "tape":
            # traces thread linearly; a second write replaces
            cot[vid] = new
        else:
            cot[vid] = self.emit("add", (cur, new))

    def zero(self, ty: Type) -> int:
        if ty.kind == "bool":
            return self.em.const_bool(False, "z")
        if ty.kind == "i64":
            return self.em.const_i64(0, "z")
        return self.em.zeros_like(ty)

    def grab(self, cot: CotangentMap, vid: int, ty: Type) -> int:
        got = cot.get(vid)
        return self.zero(ty) if got is None else got

    def pop(self, tape: int, ty: Type) -> tuple[int, int]:
        v = self.em.emit("tape_top", (tape,), {"ty": ty}, "sv")
        rest = self.em.emit("tape_rest", (tape,), None, "tr")
        return v, rest

    # reverse walk

    def region(self, nodes: list, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        outer_tops = self._level_tops
        self._level_tops = self._scan_level(nodes)
        try:
            for node in reversed(nodes):
                if isinstance(node, SInstr):
                    blog, vstack = self.instr(node.ins, cot, blog, vstack)
                elif isinstance(node, SIf):
                    blog, vstack = self.branch(node, cot, blog, vstack)
                else:
                    blog, vstack = self.loop(node, cot, blog, vstack)
        finally:
            self._level_tops = outer_tops
        return blog, vstack

    def instr(self, ins: Instruction, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        sf = self.sf
        opnd_tys = tuple(sf.types[o] for o in ins.operands)
        rty = sf.types[ins.result]

        if ins.op == "fused_map":
            rule = RULES["fused_map"]
            saved_tys = (result_type("fused_pack", opnd_tys, ins.attrs, self.module),)
        else:
            rule = _recorded_rule(sf, ins)
            if rule is None:
                if OPS[ins.op].trace:
                    return self.tape_instr(ins, cot, blog, vstack)
                return blog, vstack
            saved_tys = saved_values(rule, opnd_tys, rty)

        popped = []
        for ty in reversed(saved_tys):
            v, vstack = self.pop(vstack, ty)
            popped.append(v)
        ybar = self.grab(cot, ins.result, rty)
        cots = rule.backward(self, ins.attrs, opnd_tys, tuple(reversed(popped)), ybar)
        for o, oty, c in zip(ins.operands, opnd_tys, cots):
            if c is not None and oty.is_differentiable:
                self.acc(cot, o, c)
        return blog, vstack

    # structural adjoints of trace traffic (second-order path): the
    # cotangent of a trace is a trace of cotangents, so pushes and pops
    # swap roles
    def tape_instr(self, ins: Instruction, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        em, sf = self.em, self.sf

        if ins.op == "tape_push":
            if ins.attrs.get("per_lane"):
                raise ADError(f"@{sf.name}: batched traces cannot be differentiated")
            t0, v = ins.operands
            tbar = cot.get(ins.result)
            if tbar is None:
                tbar = em.emit("tape_new", (), None, "ct")
            cot[t0] = em.emit("tape_rest", (tbar,), None, "ct")
            vty = sf.types[v]
            if vty.is_differentiable:
                self.acc(cot, v, em.emit("tape_top", (tbar,), {"ty": vty}, "cv"))
            return blog, vstack

        if ins.op == "tape_rest":
            (t,) = ins.operands
            top = self._level_tops.get(t)
            rbar = cot.get(ins.result)
            if rbar is None:
                rbar = em.emit("tape_new", (), None, "ct")
            if top is not None:
                zty = top.attrs["ty"]
                zbar = self.grab(cot, top.result, zty)
            else:
                # a rest with no matching top drops the popped entry;
                # its adjoint pushes a zero placeholder
                zty = F64
                zbar = self.zero(F64)
            cot[t] = em.emit("tape_push", (rbar, zbar), None, "ct")
            return blog, vstack

        if ins.op == "tape_top":
            # handled at the paired tape_rest; a lone top contributes
            # nothing on its own
            return blog, vstack

        if ins.op == "tape_spread":
            raise ADError(f"@{sf.name}: batched traces cannot be differentiated")
        # tape_new, tape_expect_empty: no data flow to reverse
        return blog, vstack

    def branch(self, node: SIf, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        em, sf = self.em, self.sf
        flag, blog = self.pop(blog, BOOL)

        free = set()
        for region, args in ((node.then_region, node.then_args),
                             (node.else_region, node.else_args)):
            free |= free_values(region, args)
        outside = sorted(v for v in free if _carries_cot(sf.types[v]))

        base = dict(cot)
        arm_nodes = []
        arm_outs = []
        for region, args in ((node.then_region, node.then_args),
                             (node.else_region, node.else_args)):
            cot.clear()
            cot.update(base)
            em.push_region()
            for (mv, mty), a in zip(node.merged, args):
                if _carries_cot(mty) and mv in base:
                    self.acc(cot, a, base[mv])
            ab, av = self.region(region, cot, blog, vstack)
            outs = (ab, av) + tuple(self.grab(cot, u, sf.types[u]) for u in outside)
            arm_nodes.append(em.pop_region())
            arm_outs.append(outs)
        cot.clear()
        cot.update(base)

        blog2 = em.fresh("blog", TAPE)
        vstack2 = em.fresh("vstack", TAPE)
        merged = [(blog2, TAPE), (vstack2, TAPE)]
        for u in outside:
            nv = em.fresh("g", sf.types[u])
            cot[u] = nv
            merged.append((nv, sf.types[u]))
        em.append(SIf(flag, arm_nodes[0], arm_outs[0], arm_nodes[1], arm_outs[1], merged))
        return blog2, vstack2

    def loop(self, node: SWhile, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        em, sf = self.em, self.sf

        # exit values hand their cotangents to the carried params they alias
        for (ev, ety), ea in zip(node.exits, node.exit_args):
            got = cot.get(ev)
            if got is not None and _carries_cot(ety):
                self.acc(cot, ea, got)

        carried_ids = {cv for cv, _ in node.carried}
        header_ids = {ins.result for ins in node.header}
        free = free_values(node.body_region, node.body_args) - carried_ids - header_ids
        outside = sorted(v for v in free if _carries_cot(sf.types[v]))
        diff = [j for j, (_, cty) in enumerate(node.carried) if _carries_cot(cty)]

        pend0, blog = self.pop(blog, BOOL)
        init = [pend0, blog, vstack]
        for j in diff:
            cv, cty = node.carried[j]
            init.append(self.grab(cot, cv, cty))
            cot.pop(cv, None)
        for u in outside:
            init.append(self.grab(cot, u, sf.types[u]))

        pend_p = em.fresh("pending", BOOL)
        blog_p = em.fresh("blog", TAPE)
        vstack_p = em.fresh("vstack", TAPE)
        carried = [(pend_p, BOOL), (blog_p, TAPE), (vstack_p, TAPE)]
        k_params = []
        for j in diff:
            cty = node.carried[j][1]
            kv = em.fresh("k", cty)
            k_params.append(kv)
            carried.append((kv, cty))
        u_params = []
        for u in outside:
            kv = em.fresh("ku", sf.types[u])
            u_params.append(kv)
            carried.append((kv, sf.types[u]))

        em.push_region()
        inner: CotangentMap = {}
        for u, kv in zip(outside, u_params):
            inner[u] = kv
        for j, kv in zip(diff, k_params):
            self.acc(inner, node.body_args[j], kv)
        bb, bv = self.region(node.body_region, inner, blog_p, vstack_p)
        back = [None, bb, bv]
        for j in diff:
            cv, cty = node.carried[j]
            back.append(self.grab(inner, cv, cty))
        for u in outside:
            back.append(self.grab(inner, u, sf.types[u]))
        pend_n, bb2 = self.pop(bb, BOOL)
        back[0], back[1] = pend_n, bb2
        body_nodes = em.pop_region()

        exits = []
        for kv, ty in carried:
            exits.append((em.fresh(em.vnames[kv], ty), ty))
        em.append(SWhile(carried, tuple(init), [], pend_p, body_nodes, tuple(back),
                         exits, tuple(p for p, _ in carried), True))

        blog2, vstack2 = exits[1][0], exits[2][0]
        # the invariant slots already thread the pre-loop cotangents, so
        # they land first; a value that is also an init operand then adds
        # its flow through the first iteration on top
        for u, (xv, _) in zip(outside, exits[3 + len(diff):]):
            cot[u] = xv
        for j, (xv, _) in zip(diff, exits[3:3 + len(diff)]):
            src = node.init[j]
            if _carries_cot(sf.types[src]):
                self.acc(cot, src, xv)
        return blog2, vstack2


# ------------------------------------------------------------ driver


def augment(module: Module, name: str) -> tuple[Function, Function]:
    """Build (or fetch) the trace-forward and pullback pair for @name."""
    aug_name, pb_name = f"{name}__aug", f"{name}__pb"
    if aug_name in module.functions and pb_name in module.functions:
        return module.get(aug_name), module.get(pb_name)
    fn = module.get(name)
    sf = inline_sfunc(module, fn)
    aug_fn = flatten(_Augmenter(module, sf, aug_name).build())
    module.add(aug_fn)
    pb_fn = flatten(_PullbackBuilder(module, sf, pb_name).build())
    module.add(pb_fn)
    return aug_fn, pb_fn


def grad(
    module: Module,
    name: str,
    args: tuple,
    seeds: tuple | None = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> CotangentMap:
    """Parameter cotangents of @name at args, keyed by parameter id.

    seeds align with the function's results; a lone f64 result defaults
    to a unit seed.  Only differentiable parameters appear in the map.
    """
    fn = module.get(name)
    if seeds is None:
        if fn.results != (F64,):
            raise ValueError(f"@{name} has results {fn.results}; seeds are required")
        seeds = (1.0,)
    if len(seeds) != len(fn.results):
        raise ValueError(f"expected {len(fn.results)} seeds, got {len(seeds)}")
    aug_fn, pb_fn = augment(module, name)
    return run_aug_pb(module, fn, aug_fn.name, pb_fn.name, args, seeds, step_limit)


@np.errstate(all="ignore")
def run_aug_pb(module: Module, fn: Function, aug_name: str, pb_name: str, args: tuple,
               seeds: tuple, step_limit: int) -> CotangentMap:
    """Run @aug_name on args, then @pb_name on its two traces and seeds.

    Returns the pullback's cotangents keyed by fn's differentiable
    parameters, in order.
    """
    machine = Machine(module, step_limit)
    out = machine.call(aug_name, tuple(args))
    n = len(fn.results)
    cots = machine.call(pb_name, (out[n], out[n + 1]) + tuple(seeds))
    return dict(zip((pv for pv, ty in fn.params if ty.is_differentiable), cots))


def build_grad_function(module: Module, name: str) -> Function:
    """A function @name__grad computing d(result)/d(first parameter).

    Splices the forward clone and the pullback into one body with a
    unit seed, leaving both traces internal.  The result is ordinary
    code, so it can be augmented again for second derivatives.
    """
    wname = f"{name}__grad"
    if wname in module.functions:
        return module.get(wname)
    fn = module.get(name)
    if fn.results != (F64,):
        raise ADError(f"@{name} must return a single f64 to chain derivatives")
    if not fn.params or not fn.params[0][1].is_differentiable:
        raise ADError(f"@{name} needs a differentiable first parameter")
    aug_fn, pb_fn = augment(module, name)
    aug_sf = structurize(aug_fn, module)
    pb_sf = structurize(pb_fn, module)

    em = SEmitter(wname, (fn.params[0][1],), module)
    params = tuple(em.param(fn.value_name(pv), ty) for pv, ty in fn.params)
    outs = splice_function(em, aug_sf, params)
    seed = em.const_f64(1.0, "seed")
    cots = splice_function(em, pb_sf, (outs[1], outs[2], seed))
    wrapper = flatten(em.finish((cots[0],)))
    module.add(wrapper)
    return wrapper


def grad_of_grad(
    module: Module,
    name: str,
    x: float,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> float:
    """Second derivative of a scalar function of one f64 parameter."""
    fn = module.get(name)
    if len(fn.params) != 1 or fn.params[0][1] != F64:
        raise ADError(f"@{name} must take a single f64 parameter")
    wrapper = build_grad_function(module, name)
    cots = grad(module, wrapper.name, (float(x),), (1.0,), step_limit)
    return cots[wrapper.params[0][0]]
