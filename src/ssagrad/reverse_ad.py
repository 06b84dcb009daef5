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

Only active values get adjoint code (activity analysis, as in Tapenade:
Hascoet & Pascual, ACM TOMS 39(3), 2013): those varied, by data flow
through merges and loops, from a differentiable parameter, and useful on
the way to a returned value that carries a cotangent.  For constants,
``itof`` of counters and dead code nothing is pushed, reversed or carried,
and ``drop_dead`` removes what rule bodies emit for them.

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
    Copier,
    SEmitter,
    SFunc,
    SIf,
    SInstr,
    SWhile,
    closure,
    defs,
    drop_dead,
    flatten,
    flows,
    free_values,
    splice_function,
    structurize,
    walk,
)

# value kinds that carry a cotangent through the pullback: real numbers,
# and traces (their adjoint is a trace of cotangents); batched traces do
# not, second order stays per-sample
CotangentMap = dict[int, object]


class ADError(Exception):
    """A function cannot be differentiated as requested."""


def _carries_cot(ty: Type) -> bool:
    return ty.is_differentiable or ty.kind == "tape"


# ---------------------------------------------- inlining and activity


def inline_sfunc(module: Module, fn: Function) -> SFunc:
    """Structurize a function with every call spliced away; with no call,
    that is ``structurize``'s own tree."""
    if all(ins.op != "call" for b in fn.blocks for ins in b.body):
        return structurize(fn, module)
    return _Inliner(module, fn, ()).run()


class _Inliner(Copier):
    """Copies ``fn`` with each call replaced by the callee's inlined
    body; ``active`` names the callers being inlined, which no call may
    reach again."""

    def __init__(self, module: Module, fn: Function, active: tuple[str, ...]):
        if fn.name in active:
            raise ADError(f"@{fn.name} is recursive; calls cannot be flattened")
        sf = structurize(fn, module)
        em = SEmitter(fn.name, sf.results, module)
        super().__init__(em, sf, {pv: em.param(sf.vnames.get(pv, "p"), ty) for pv, ty in sf.params})
        self.active = active + (fn.name,)

    def instr(self, ins: Instruction, state: tuple) -> tuple:
        if ins.op != "call":
            return super().instr(ins, state)
        em = self.em
        callee = _Inliner(em.module, em.module.get(ins.attrs["fn"].name), self.active).run()
        args = tuple(self.valmap[o] for o in ins.operands)
        self.valmap[ins.result] = splice_function(em, callee, args)[0]
        return state

    def run(self) -> SFunc:
        self.region(self.src.region)
        return self.em.finish(tuple(self.valmap[v] for v in self.src.ret_vals))


def activity(sf: SFunc) -> set[int]:
    """The active values of ``sf`` (module docstring): those both varied
    and useful.  Both are closures over the data flow (``structure.flows``)
    between values that carry a cotangent, leaving out the flow through
    ops that pass none on (``OpDef.no_cotangent``): varied values run
    forward from the differentiable parameters, and useful ones backward
    from the results."""
    carries = {v for v, ty in sf.types.items() if _carries_cot(ty)}
    edges = [(a, b) for n in walk(sf.region)
             if not (isinstance(n, SInstr) and OPS[n.ins.op].no_cotangent)
             for a, b in flows(n) if a in carries and b in carries]
    varied = closure((pv for pv, ty in sf.params if ty.is_differentiable), edges)
    useful = closure((rv for rv in sf.ret_vals if rv in carries), [(b, a) for a, b in edges])
    return varied & useful


def _inert(node, active: set[int]) -> bool:
    """Whether a node defines no active value.  An inert if or loop
    needs no flags on the trace and no reversal: the cotangents it would
    carry pass through it unchanged."""
    return all(active.isdisjoint(defs(n)) for n in walk([node]))


def _recorded_rule(active: set[int], sf: SFunc, ins: Instruction) -> Rule | None:
    """The rule to trace for an instruction, if any.

    Both the forward clone and the pullback call this, which is what
    keeps their push and pop sequences aligned.  Rules fire only on
    active differentiable results; an i64 add is plain bookkeeping.
    """
    if ins.result not in active or not sf.types[ins.result].is_differentiable:
        return None
    return RULES.get(ins.op)


# ------------------------------------------------------ forward clone


class _Augmenter(Copier):
    """The forward clone: a copy of the source whose state is the two
    traces it pushes onto."""

    state = (("blog", TAPE), ("vstack", TAPE))

    def __init__(self, module: Module, sf: SFunc, active: set[int], name: str):
        super().__init__(SEmitter(name, sf.results + (TAPE, TAPE), module), sf, {})
        self.active = active

    def build(self) -> SFunc:
        sf, em = self.src, self.em
        for pv, ty in sf.params:
            self.valmap[pv] = em.param(sf.vnames.get(pv, "p"), ty)
        traces = tuple(em.emit("tape_new", (), None, n) for n, _ in self.state)
        state = self.region(sf.region, traces)
        return em.finish(tuple(self.valmap[v] for v in sf.ret_vals) + state)

    def instr(self, ins: Instruction, state: tuple) -> tuple:
        em, sf, valmap = self.em, self.src, self.valmap
        name = sf.vnames.get(ins.result, "t")
        rty = sf.types[ins.result]

        rule = _recorded_rule(self.active, sf, ins)
        if rule is not None:
            blog, vstack = state
            ops = tuple(valmap[o] for o in ins.operands)
            if ins.op == "fused_map":
                pack = em.emit("fused_pack", ops, dict(ins.attrs), name + "_pack")
                valmap[ins.result] = em.emit("unstack", (pack,), {"index": 0, "axis": 0}, name)
                return blog, em.emit("tape_push", (vstack, pack), None, "vs")
            vid = em.emit(ins.op, ops, dict(ins.attrs), name)
            valmap[ins.result] = vid
            for v in saved_values(rule, ops, vid):
                vstack = em.emit("tape_push", (vstack, v), None, "vs")
            return blog, vstack

        if ins.op == "select" and rty.kind in ("tape", "tapes"):
            raise ADError(f"@{sf.name}: cannot differentiate a select over traces")
        if ins.op == "tape_spread" or ins.attrs.get("per_lane"):
            raise ADError(f"@{sf.name}: batched traces cannot be differentiated")
        d = OPS[ins.op]
        if rty.is_differentiable and ins.op not in RULES and not (d.no_cotangent or d.trace):
            raise ADError(f"@{sf.name}: op '{ins.op}' (%{name}) has no derivative rule")

        # ops with no cotangent, integer bookkeeping, and trace traffic pass through
        return super().instr(ins, state)

    # an inert if or loop is copied with no state: it pushes nothing, and
    # the state passes it by; a loop pushes false before it is entered
    def branch(self, node: SIf, state: tuple) -> tuple:
        return super().branch(node, () if _inert(node, self.active) else state) or state

    def loop(self, node: SWhile, state: tuple) -> tuple:
        if _inert(node, self.active):
            return super().loop(node, ()) or state
        return super().loop(node, self.push_flag(state, False, "entered"))

    def push_flag(self, state: tuple, value: bool, name: str) -> tuple:
        if not state:
            return state
        blog, vstack = state
        f = self.em.const_bool(value, name)
        return self.em.emit("tape_push", (blog, f), None, "bl"), vstack

    def arm_end(self, taken: bool, state: tuple) -> tuple:
        return self.push_flag(state, taken, "taken")

    def back_edge(self, state: tuple) -> tuple:
        return self.push_flag(state, True, "again")


# ----------------------------------------------------------- pullback


class _PullbackBuilder:
    """Emits the pullback; it is also the rule backend that ``RULES``
    bodies run on here, so their ops become instructions named ``g``."""

    def __init__(self, module: Module, sf: SFunc, active: set[int], name: str):
        self.module = module
        self.sf = sf
        self.active = active
        out = tuple(ty for _, ty in sf.params if ty.is_differentiable)
        self.em = SEmitter(name, out, module)
        # maps a trace vid to the tape_top that reads it when a tape_rest
        # reads it too, scoped to the region being walked; a pop emits its
        # top and rest side by side in one region, and sibling regions may
        # pop the same source, so the pairing must not leak across regions
        self._level_tops: dict[int, Instruction] = {}

    @staticmethod
    def _scan_level(nodes: list) -> dict[int, Instruction]:
        body = [node.ins for node in nodes if isinstance(node, SInstr)]
        rests = {ins.operands[0] for ins in body if ins.op == "tape_rest"}
        return {ins.operands[0]: ins for ins in body
                if ins.op == "tape_top" and ins.operands[0] in rests}

    def build(self) -> SFunc:
        em, sf = self.em, self.sf
        blog = em.param("blog", TAPE)
        vstack = em.param("vstack", TAPE)
        cot: CotangentMap = {}
        for i, (rv, rty) in enumerate(zip(sf.ret_vals, sf.results)):
            seed = em.param(f"seed{i}", rty)
            if rv in self.active:
                self.acc(cot, rv, seed)
        blog, vstack = self.region(sf.region, cot, blog, vstack)
        em.emit("tape_expect_empty", (blog,), None, "drained")
        em.emit("tape_expect_empty", (vstack,), None, "drained")
        return em.finish(tuple(self.grab(cot, pv, ty) for pv, ty in sf.params
                               if ty.is_differentiable))

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

    def grab(self, cot: CotangentMap, vid: int, ty: Type) -> int:
        got = cot.get(vid)
        return self.em.zeros_like(ty) if got is None else got

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
                elif _inert(node, self.active):
                    continue
                elif isinstance(node, SIf):
                    blog, vstack = self.branch(node, cot, blog, vstack)
                else:
                    blog, vstack = self.loop(node, cot, blog, vstack)
        finally:
            self._level_tops = outer_tops
        return blog, vstack

    def instr(self, ins: Instruction, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        sf = self.sf
        rule = _recorded_rule(self.active, sf, ins)
        if rule is None:
            if OPS[ins.op].trace:
                return self.tape_instr(ins, cot, blog, vstack)
            return blog, vstack

        opnd_tys = tuple(sf.types[o] for o in ins.operands)
        rty = sf.types[ins.result]
        if ins.op == "fused_map":
            saved_tys = (result_type("fused_pack", opnd_tys, ins.attrs, self.module),)
        else:
            saved_tys = saved_values(rule, opnd_tys, rty)

        popped = []
        for ty in reversed(saved_tys):
            v, vstack = self.pop(vstack, ty)
            popped.append(v)
        ybar = self.grab(cot, ins.result, rty)
        cots = rule.backward(self, ins.attrs, opnd_tys, tuple(reversed(popped)), ybar)
        for o, c in zip(ins.operands, cots):
            if c is not None and o in self.active:
                self.acc(cot, o, c)
        return blog, vstack

    # structural adjoints of trace traffic (second-order path): the
    # cotangent of a trace is a trace of cotangents, so pushes and pops
    # swap roles
    def tape_instr(self, ins: Instruction, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        em, sf = self.em, self.sf

        if ins.op == "tape_push":
            if ins.result not in self.active:  # its cotangent trace reads as zeros
                return blog, vstack
            t0, v = ins.operands
            tbar = cot.get(ins.result)
            if tbar is None:
                tbar = em.emit("tape_new", (), None, "ct")
            cot[t0] = em.emit("tape_rest", (tbar,), None, "ct")
            vty = sf.types[v]
            if vty.is_differentiable and v in self.active:
                self.acc(cot, v, em.emit("tape_top", (tbar,), {"ty": vty}, "cv"))
            return blog, vstack

        if ins.op == "tape_rest":
            (t,) = ins.operands
            top = self._level_tops.get(t)
            rbar = cot.get(ins.result)
            if rbar is None:
                rbar = em.emit("tape_new", (), None, "ct")
            if top is not None:
                zbar = self.grab(cot, top.result, top.attrs["ty"])
            else:
                # a rest with no matching top drops the popped entry;
                # its adjoint pushes a zero placeholder
                zbar = em.zeros_like(F64)
            cot[t] = em.emit("tape_push", (rbar, zbar), None, "ct")
            return blog, vstack

        # tape_top is handled at the paired tape_rest, whose adjoint pushes
        # the top's cotangent; with no such rest that cotangent would be
        # lost.  tape_new and tape_expect_empty have no data flow to reverse
        if (ins.op == "tape_top" and ins.result in self.active
                and self._level_tops.get(ins.operands[0]) is not ins):
            raise ADError(f"@{sf.name}: tape_top %{sf.vnames.get(ins.result, '?')} has no "
                          f"tape_rest of its trace in its region to take its cotangent")
        return blog, vstack

    def branch(self, node: SIf, cot: CotangentMap, blog: int, vstack: int) -> tuple[int, int]:
        em, sf = self.em, self.sf
        flag, blog = self.pop(blog, BOOL)

        outside = sorted(free_values([node]) & self.active)

        base = dict(cot)
        arm_nodes = []
        arm_outs = []
        for region, args in ((node.then_region, node.then_args),
                             (node.else_region, node.else_args)):
            cot.clear()
            cot.update(base)
            em.push_region()
            for (mv, _), a in zip(node.merged, args):
                if mv in base:  # mv is useful, so a is too
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
        for (ev, _), ea in zip(node.exits, node.exit_args):
            got = cot.get(ev)
            if got is not None:
                self.acc(cot, ea, got)

        carried_ids = {cv for cv, _ in node.carried}
        free = free_values(node.body_region, node.body_args) - carried_ids
        outside = sorted(free & self.active)
        diff = [j for j, (cv, _) in enumerate(node.carried) if cv in self.active]

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
                         exits, tuple(p for p, _ in carried)))

        blog2, vstack2 = exits[1][0], exits[2][0]
        # the invariant slots already thread the pre-loop cotangents, so
        # they land first; a value that is also an init operand then adds
        # its flow through the first iteration on top
        for u, (xv, _) in zip(outside, exits[3 + len(diff):]):
            cot[u] = xv
        for j, (xv, _) in zip(diff, exits[3:3 + len(diff)]):
            self.acc(cot, node.init[j], xv)
        return blog2, vstack2


# ------------------------------------------------------------ driver


def augment(module: Module, name: str) -> tuple[Function, Function]:
    """Build (or fetch) the trace-forward and pullback pair for @name."""
    aug_name, pb_name = f"{name}__aug", f"{name}__pb"
    if aug_name in module.functions and pb_name in module.functions:
        return module.get(aug_name), module.get(pb_name)
    fn = module.get(name)
    sf = inline_sfunc(module, fn)
    active = activity(sf)
    aug_fn = flatten(drop_dead(_Augmenter(module, sf, active, aug_name).build()))
    module.add(aug_fn)
    pb_fn = flatten(drop_dead(_PullbackBuilder(module, sf, active, pb_name).build()))
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


def splice_pullbacks(em: SEmitter, name: str, args: tuple, seeds: list[tuple]) -> tuple:
    """Splice @name__aug on ``args``, then @name__pb on its traces once
    per tuple of constant seeds; returns @name's results and the
    cotangents of each pullback."""
    aug_fn, pb_fn = augment(em.module, name)
    outs = splice_function(em, structurize(aug_fn, em.module), args)
    pb_sf = structurize(pb_fn, em.module)
    return outs[:-2], [splice_function(em, pb_sf, outs[-2:] + tuple(
        em.const_f64(x, "seed") for x in s)) for s in seeds]


def build_grad_function(module: Module, name: str) -> Function:
    """A function @name__grad computing d(result)/d(first parameter).

    Splices the forward clone and the pullback with a unit seed
    (``splice_pullbacks``).  The result is ordinary code, so it can be
    augmented again for second derivatives.  Forwarding its traces
    (``simplify``) would reorder sums there and move their last bits.
    """
    wname = f"{name}__grad"
    if wname in module.functions:
        return module.get(wname)
    fn = module.get(name)
    if fn.results != (F64,):
        raise ADError(f"@{name} must return a single f64 to chain derivatives")
    if not fn.params or not fn.params[0][1].is_differentiable:
        raise ADError(f"@{name} needs a differentiable first parameter")
    em = SEmitter(wname, (fn.params[0][1],), module)
    params = tuple(em.param(fn.value_name(pv), ty) for pv, ty in fn.params)
    _, (cots,) = splice_pullbacks(em, name, params, [(1.0,)])
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
