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
those of the loop-free values used inside.  The walk's state, the
cotangents so far and the current two traces, lives on the builder;
each arm and each loop body walks from a state of its own.

One builder of each half emits into an emitter its caller owns:
``augment`` gives each half a function of its own, and ``vjp`` puts the
forward clone and its pullbacks at constant seeds into one function.

Only active values get adjoint code (activity analysis, as in Tapenade:
Hascoet & Pascual, ACM TOMS 39(3), 2013): those varied, by data flow
through merges and loops, from a differentiable parameter, and useful on
the way to a returned value that carries a cotangent.  For constants,
``itof`` of counters and dead code nothing is pushed, reversed or carried,
and ``drop_dead`` removes what rule bodies emit for them.  Likewise a
value with no cotangent gets no adjoint code; a 0.0 constant seed is
none (symbolic zeros, as in JAX and Zygote).  The pops of its saved
values stay, so the traces still balance.

Tape traffic itself has structural adjoints (a push reverses to a pop
of the cotangent trace and vice versa), which is what makes the
generated code differentiable again: second derivatives come from
augmenting @f__grad (``build_grad_function``).  A pop is a ``tape_top``
and a ``tape_rest`` of one trace in one region; either alone is refused.
An active trace is read once: a trace of cotangents has no sum, so a
second read (two pushes onto it, or two bindings of it) is refused too.
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
    add_tree,
    closure,
    defs,
    drop_dead,
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

    def __init__(self, em: SEmitter, sf: SFunc, active: set[int]):
        super().__init__(em, sf, {})
        self.active = active

    def run(self, args: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]]:
        """Emit the clone on ``args``; returns its results and its traces
        (blog, vstack)."""
        sf = self.src
        self.valmap.update(zip((pv for pv, _ in sf.params), args))
        traces = tuple(self.em.emit("tape_new", (), None, n) for n, _ in self.state)
        state = self.region(sf.region, traces)
        return tuple(self.valmap[v] for v in sf.ret_vals), state

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
        d = OPS[ins.op]
        if d.trace and "tapes" in (rty.kind, *(sf.types[o].kind for o in ins.operands)):
            raise ADError(f"@{sf.name}: batched traces cannot be differentiated")
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
    bodies run on here, so their ops become instructions named ``g``.

    The walk's state is ``cot``, each source value's cotangent so far,
    and ``traces``, the current [blog, vstack].  The walk methods take a
    node and update that state; ``branch`` and ``loop`` walk each arm or
    body from a state of its own, then set the state after the node."""

    def __init__(self, em: SEmitter, sf: SFunc, active: set[int]):
        self.em, self.sf, self.active = em, sf, active
        self.cot: CotangentMap = {}
        self.traces: list[int] = []
        # maps a trace vid to the tape_top that reads it when a tape_rest
        # reads it too, scoped to the region being walked; a pop emits its
        # top and rest side by side in one region, and sibling regions may
        # pop the same source, so the pairing must not leak across regions
        self._level_tops: dict[int, Instruction] = {}

    def run(self, traces: tuple[int, int], seeds: tuple[int, ...]) -> tuple[int, ...]:
        """Emit the pullback of the clone's traces (blog, vstack) at
        ``seeds``, one per result, None for a result with no cotangent;
        returns the cotangents of the differentiable parameters."""
        sf = self.sf
        self.cot, self.traces = {}, list(traces)
        for rv, seed in zip(sf.ret_vals, seeds):
            if rv in self.active and seed is not None:
                self.acc(rv, seed)
        self.region(sf.region)
        for t in self.traces:
            self.em.emit("tape_expect_empty", (t,), None, "drained")
        return tuple(self.grab(pv) for pv, ty in sf.params if ty.is_differentiable)

    # the rule backend

    def emit(self, op: str, operands: tuple[int, ...], attrs: dict | None = None) -> int:
        return self.em.emit(op, operands, attrs, "g")

    def type_of(self, vid: int) -> Type:
        return self.em.types[vid]

    # cotangent bookkeeping

    def acc(self, vid: int, new: int):
        cur = self.cot.get(vid)
        if cur is not None:
            if self.em.types[new].kind != "tape":
                new = self.emit("add", (cur, new))
            elif vid in self.active:  # a trace of cotangents has no sum
                raise ADError(f"@{self.sf.name}: trace %{self.sf.vnames.get(vid, '?')} "
                              f"is read twice; an active trace must be read once")
            # an inactive trace holds no varied entry: its cotangent is never read
        self.cot[vid] = new

    def grab(self, vid: int) -> int:
        got = self.cot.get(vid)
        return self.em.zeros_like(self.sf.types[vid]) if got is None else got

    def pop(self, k: int, ty: Type) -> int:
        """The top of trace k (0 for blog, 1 for vstack); trace k moves
        to its rest."""
        t = self.traces[k]
        v = self.em.emit("tape_top", (t,), {"ty": ty}, "sv")
        self.traces[k] = self.em.emit("tape_rest", (t,), None, "tr")
        return v

    # reverse walk

    def region(self, nodes: list):
        outer_tops = self._level_tops
        body = [node.ins for node in nodes if isinstance(node, SInstr)]
        rests = {ins.operands[0] for ins in body if ins.op == "tape_rest"}
        self._level_tops = {ins.operands[0]: ins for ins in body
                            if ins.op == "tape_top" and ins.operands[0] in rests}
        for node in reversed(nodes):
            if isinstance(node, SInstr):
                self.instr(node.ins)
            elif _inert(node, self.active):
                continue
            elif isinstance(node, SIf):
                self.branch(node)
            else:
                self.loop(node)
        self._level_tops = outer_tops

    def instr(self, ins: Instruction):
        sf = self.sf
        rule = _recorded_rule(self.active, sf, ins)
        if rule is None:
            if OPS[ins.op].trace:
                self.tape_instr(ins)
            return

        opnd_tys = tuple(sf.types[o] for o in ins.operands)
        if ins.op == "fused_map":
            saved_tys = (result_type("fused_pack", opnd_tys, ins.attrs, self.em.module),)
        else:
            saved_tys = saved_values(rule, opnd_tys, sf.types[ins.result])

        popped = [self.pop(1, ty) for ty in reversed(saved_tys)]
        ybar = self.cot.get(ins.result)
        if ybar is None:  # no cotangent reaches it: its rule would only spread zeros
            return
        cots = rule.backward(self, ins.attrs, opnd_tys, tuple(reversed(popped)), ybar)
        for o, c in zip(ins.operands, cots):
            if c is not None and o in self.active:
                self.acc(o, c)

    # structural adjoints of trace traffic (second-order path): the
    # cotangent of a trace is a trace of cotangents, so pushes and pops
    # swap roles
    def tape_instr(self, ins: Instruction):
        em, sf, cot = self.em, self.sf, self.cot

        if ins.op == "tape_push":
            if ins.result not in self.active:  # its cotangent trace reads as zeros
                return
            t0, v = ins.operands
            tbar = cot.get(ins.result)
            if tbar is None:
                tbar = em.emit("tape_new", (), None, "ct")
            self.acc(t0, em.emit("tape_rest", (tbar,), None, "ct"))
            vty = sf.types[v]
            if vty.is_differentiable and v in self.active:
                self.acc(v, em.emit("tape_top", (tbar,), {"ty": vty}, "cv"))
            return

        # a pop is a top and a rest of one trace in one region, and the
        # rest's adjoint pushes the top's cotangent: a lone top's would be
        # lost, and a lone rest has no type for the entry it drops.
        # tape_new and tape_expect_empty have no data flow to reverse
        if ins.op not in ("tape_top", "tape_rest"):
            return
        (t,) = ins.operands
        top = self._level_tops.get(t)
        if ins.result in self.active and (top is None or ins.op == "tape_top" and top is not ins):
            other, why = (("tape_rest", "take its cotangent") if ins.op == "tape_top"
                          else ("tape_top", "type the entry it drops"))
            raise ADError(f"@{sf.name}: {ins.op} %{sf.vnames.get(ins.result, '?')} has no "
                          f"{other} of its trace in its region to {why}")
        if ins.op == "tape_rest" and top is not None:
            rbar = cot.get(ins.result)
            if rbar is None:
                rbar = em.emit("tape_new", (), None, "ct")
            self.acc(t, em.emit("tape_push", (rbar, self.grab(top.result)), None, "ct"))

    def branch(self, node: SIf):
        em, sf = self.em, self.sf
        flag = self.pop(0, BOOL)
        outside = sorted(free_values([node]) & self.active)

        base, traces = self.cot, self.traces
        arms = []
        for region, args in ((node.then_region, node.then_args),
                             (node.else_region, node.else_args)):
            self.cot, self.traces = dict(base), list(traces)
            em.push_region()
            for (mv, _), a in zip(node.merged, args):
                if mv in base:  # mv is useful, so a is too
                    self.acc(a, base[mv])
            self.region(region)
            outs = tuple(self.traces) + tuple(self.grab(u) for u in outside)
            arms += [em.pop_region(), outs]

        self.cot = base
        merged = [(em.fresh(n, ty), ty) for n, ty in _Augmenter.state]
        self.traces = [v for v, _ in merged]
        for u in outside:
            base[u] = nv = em.fresh("g", sf.types[u])
            merged.append((nv, sf.types[u]))
        em.append(SIf(flag, *arms, merged))

    def loop(self, node: SWhile):
        em, sf, cot = self.em, self.sf, self.cot

        # exit values hand their cotangents to the carried params they alias
        for (ev, _), ea in zip(node.exits, node.exit_args):
            if ev in cot:
                self.acc(ea, cot[ev])

        free = free_values(node.body_region, node.body_args) - {cv for cv, _ in node.carried}
        outside = sorted(free & self.active)
        diff = [j for j, (cv, _) in enumerate(node.carried) if cv in self.active]
        ks = [node.carried[j][0] for j in diff]
        slots = ks + outside  # the values whose cotangents the reverse loop carries

        init = [self.pop(0, BOOL), *self.traces] + [self.grab(v) for v in slots]
        for cv in ks:
            cot.pop(cv, None)
        carried = [(em.fresh("pending", BOOL), BOOL)]
        carried += [(em.fresh(n, ty), ty) for n, ty in _Augmenter.state]
        carried += [(em.fresh("k", sf.types[cv]), sf.types[cv]) for cv in ks]
        carried += [(em.fresh("ku", sf.types[u]), sf.types[u]) for u in outside]
        params = [v for v, _ in carried]

        em.push_region()
        self.cot, self.traces = dict(zip(outside, params[3 + len(diff):])), params[1:3]
        for j, kv in zip(diff, params[3:]):
            self.acc(node.body_args[j], kv)
        self.region(node.body_region)
        back = [self.grab(v) for v in slots]
        pend = self.pop(0, BOOL)
        body = em.pop_region()

        exits = [(em.fresh(em.vnames[kv], ty), ty) for kv, ty in carried]
        em.append(SWhile(carried, tuple(init), [], params[0], body,
                         (pend, *self.traces, *back), exits, tuple(params)))
        self.cot, self.traces = cot, [exits[1][0], exits[2][0]]
        # the invariant slots already thread the pre-loop cotangents, so
        # they land first; a value that is also an init operand then adds
        # its flow through the first iteration on top
        for u, (xv, _) in zip(outside, exits[3 + len(diff):]):
            cot[u] = xv
        for j, (xv, _) in zip(diff, exits[3:]):
            self.acc(node.init[j], xv)


# ------------------------------------------------------------ driver


def augment(module: Module, name: str) -> tuple[Function, Function]:
    """Build (or fetch) the trace-forward and pullback pair for @name.

    The forward clone and the pullback are emitted into functions of
    their own, joined only by the two traces (module docstring).  Each
    keeps the tree it was flattened from (``add_tree``), which
    ``structurize`` hands to ``vectorize`` and ``lower``."""
    aug_name, pb_name = f"{name}__aug", f"{name}__pb"
    if aug_name in module.functions and pb_name in module.functions:
        return module.get(aug_name), module.get(pb_name)
    sf = inline_sfunc(module, module.get(name))
    active = activity(sf)
    em = SEmitter(aug_name, sf.results + (TAPE, TAPE), module)
    args = tuple(em.param(sf.vnames.get(pv, "p"), ty) for pv, ty in sf.params)
    results, traces = _Augmenter(em, sf, active).run(args)
    aug_fn = add_tree(module, drop_dead(em.finish(results + traces)))
    em = SEmitter(pb_name, tuple(ty for _, ty in sf.params if ty.is_differentiable), module)
    traces = tuple(em.param(n, ty) for n, ty in _Augmenter.state)
    seeds = tuple(em.param(f"seed{i}", ty) for i, ty in enumerate(sf.results))
    cots = _PullbackBuilder(em, sf, active).run(traces, seeds)
    return aug_fn, add_tree(module, drop_dead(em.finish(cots)))


def vjp(em: SEmitter, name: str, args: tuple[int, ...], seeds: list[tuple]) -> tuple:
    """Emit into ``em`` @name's forward clone on ``args``, then its pullback
    once per tuple of constant f64 seeds, all reading the clone's traces;
    returns @name's results and each pullback's cotangents.  A 0.0 seed
    is no seed: what only it reaches gets no adjoint code, and a
    parameter only it reaches gets a zero constant.  The caller owns
    ``em``: one function holds the forward pass and its pullbacks."""
    sf = inline_sfunc(em.module, em.module.get(name))
    active = activity(sf)
    results, traces = _Augmenter(em, sf, active).run(args)
    return results, [_PullbackBuilder(em, sf, active).run(
        traces, tuple(None if x == 0.0 else em.const_f64(x, "seed") for x in s))
        for s in seeds]


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

    One function holds the forward clone and its pullback at a unit
    seed (``vjp``), and ``drop_dead`` removes the results and cotangents
    it does not return.  It is ordinary code, so it can be augmented
    again for second derivatives.  Its traces stay: forwarding them
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
    _, (cots,) = vjp(em, name, params, [(1.0,)])
    return add_tree(module, drop_dead(em.finish((cots[0],))))


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
