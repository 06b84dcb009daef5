"""Runtime-taped gradients, independent of the IR transform.

trace_eval runs a function while boxing every value with a slot id.
Binding a block argument or pushing onto a trace moves the box, so a
value keeps one identity across blocks, calls and traces without any
analysis; the trace is just the list of differentiable primitives in
execution order.  tape_backprop then sweeps that list once, backwards,
running the adjoint rules on their numeric backend (``rules.NUMERIC``).

The tracer is a Machine whose kernel table wraps each entry of
``KERNELS``: values are computed by the plain kernels on unboxed
operands, so traced results are bit-identical to plain evaluation.

Executed comparisons are logged with their margins |a - b|; input
samplers use these to stay clear of branch flips when a finite
difference will later nudge the inputs.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .ir import Module, Type
from .interp import DEFAULT_STEP_LIMIT, KERNELS, Machine, zero_of
from .ops import OPS
from .rules import NUMERIC, RULES, runtime_type, saved_values
from .tensor import DenseTensor


class Tracked:
    __slots__ = ("v", "slot")

    def __init__(self, v, slot: int):
        self.v = v
        self.slot = slot

    def __bool__(self):
        # branch conditions reach the block walker boxed
        return bool(self.v)

    def __repr__(self):
        return f"<#{self.slot} {self.v!r}>"


class TraceNode:
    __slots__ = ("op", "attrs", "arg_slots", "arg_types", "saved", "out_slot")

    def __init__(self, op, attrs, arg_slots, arg_types, saved, out_slot):
        self.op = op
        self.attrs = attrs
        self.arg_slots = arg_slots
        self.arg_types = arg_types
        self.saved = saved
        self.out_slot = out_slot


class Trace:
    def __init__(self):
        self.nodes: list[TraceNode] = []
        self.params: list[tuple[int, Type, int]] = []  # (vid, ty, slot)
        self.result_slots: tuple[int, ...] = ()
        self.compare_margins: list[float] = []

    def min_compare_margin(self) -> float:
        return min(self.compare_margins, default=float("inf"))


def _traced_kernel(op: str, kernel):
    """kernel on unboxed values; records op's trace node and compare margin."""
    rule = RULES.get(op)
    # an elementwise op whose result takes no cotangent is a comparison
    compare = OPS[op].elementwise and OPS[op].no_cotangent

    def traced(m, attrs, env, a):
        boxed = [env[o] for o in a]
        vals = [b.v for b in boxed]
        value = kernel(m, attrs, vals, range(len(vals)))
        if compare and not all(isinstance(v, int) for v in vals):
            m.trace.compare_margins.append(_margin(vals[0], vals[1]))
        # as in the transform, rules fire only on differentiable
        # results; an i64 add is plain bookkeeping
        if rule is None or not isinstance(value, (float, DenseTensor)):
            return m.fresh(value)
        return _record(m, op, attrs, boxed, vals, saved_values(rule, vals, value), value)
    return traced


def _traced_fused_map(m, attrs, env, a):
    """A fused_map saves its whole pack; the result is the primal row."""
    boxed = [env[o] for o in a]
    vals = [b.v for b in boxed]
    pack = KERNELS["fused_pack"](m, attrs, vals, range(len(vals)))
    return _record(m, "fused_map", attrs, boxed, vals, (pack,), T.take(pack, 0, 0))


def _traced_tape_push(m, attrs, env, a):
    """The pushed value's box is kept beside the new trace, so the
    tape_top that reads it hands back that slot and cotangents flow
    through the trace."""
    t = KERNELS["tape_push"](m, attrs, [env[a[0]].v, env[a[1]].v], range(2))
    m.pushed[t] = env[a[1]]
    return m.fresh(t)


def _traced_tape_top(m, attrs, env, a):
    t = env[a[0]].v
    box = m.pushed.get(t)
    return m.fresh(KERNELS["tape_top"](m, attrs, [t], range(1))) if box is None else box


def _record(m, op, attrs, boxed, vals, saved, value) -> Tracked:
    res = m.fresh(value)
    m.trace.nodes.append(TraceNode(
        op, attrs, tuple(b.slot for b in boxed), tuple(runtime_type(v) for v in vals),
        saved, res.slot,
    ))
    return res


class _Tracer(Machine):
    """Machine over Tracked values that appends to one Trace."""

    # calls run boxed through the same walker, so slots cross them
    kernels = {
        **{op: _traced_kernel(op, k) for op, k in KERNELS.items()},
        "call": KERNELS["call"],
        "fused_map": _traced_fused_map,
        "tape_push": _traced_tape_push,
        "tape_top": _traced_tape_top,
    }

    def __init__(self, module: Module, step_limit: int):
        super().__init__(module, step_limit)
        self.trace = Trace()
        self._next_slot = 0
        self.pushed: dict[object, Tracked] = {}  # trace -> box of its top entry

    def fresh(self, v) -> Tracked:
        s = self._next_slot
        self._next_slot += 1
        return Tracked(v, s)


def _margin(a, b) -> float:
    da = a.data if isinstance(a, DenseTensor) else np.float64(a)
    db = b.data if isinstance(b, DenseTensor) else np.float64(b)
    return float(np.min(np.abs(da - db)))


@np.errstate(all="ignore")
def trace_eval(
    module: Module,
    name: str,
    args: tuple,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> tuple[tuple, Trace]:
    """Evaluate @name while recording its differentiable primitives."""
    tr = _Tracer(module, step_limit)
    fn = module.get(name)
    boxed = tuple(tr.fresh(a) for a in args)
    tr.trace.params = [(vid, ty, b.slot) for (vid, ty), b in zip(fn.params, boxed)]
    out = tr.run(fn, boxed)
    tr.trace.result_slots = tuple(b.slot for b in out)
    return tuple(b.v for b in out), tr.trace


def tape_backprop(trace: Trace, seeds: tuple) -> dict:
    """One reverse sweep over a trace.

    seeds align with the traced function's results.  Returns parameter
    cotangents keyed by parameter value id; non-differentiable
    parameters are absent, unreached ones come back as zeros.
    """
    if len(seeds) != len(trace.result_slots):
        raise ValueError(f"expected {len(trace.result_slots)} seeds, got {len(seeds)}")
    acc: dict[int, object] = {}
    for slot, seed in zip(trace.result_slots, seeds):
        _acc(acc, slot, seed)
    for node in reversed(trace.nodes):
        ybar = acc.get(node.out_slot)
        if ybar is None:
            continue
        cots = RULES[node.op].backward(NUMERIC, node.attrs, node.arg_types, node.saved, ybar)
        for slot, cot in zip(node.arg_slots, cots):
            if cot is not None:
                _acc(acc, slot, cot)
    out: dict[int, object] = {}
    for vid, ty, slot in trace.params:
        if ty.is_differentiable:
            got = acc.get(slot)
            out[vid] = zero_of(ty) if got is None else got
    return out


def _acc(acc: dict, slot: int, v):
    cur = acc.get(slot)
    acc[slot] = v if cur is None else T.add(cur, v)


def trace_grad(
    module: Module,
    name: str,
    args: tuple,
    seeds: tuple,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> dict:
    _, trace = trace_eval(module, name, args, step_limit)
    return tape_backprop(trace, seeds)


# ------------------------------------------------- finite differences


def _objective(module: Module, name: str, args: tuple, seeds: tuple, step_limit: int) -> float:
    out = Machine(module, step_limit).call(name, args)
    total = 0.0
    for v, s in zip(out, seeds):
        if isinstance(v, DenseTensor):
            total += T.reduce_sum(T.mul(v, s), "all")
        elif isinstance(v, bool) or isinstance(v, int):
            continue
        else:
            total += v * s
    return total


@np.errstate(all="ignore")
def finite_diff(
    module: Module,
    name: str,
    args: tuple,
    seeds: tuple,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> dict:
    """Central-difference gradient of seeds . f(args), keyed like grad.

    Step size scales with the coordinate: h = 1e-6 * max(1, |x|).
    Raises EvalError if a probe point leaves the domain; callers with
    sampled inputs should resample rather than trust a one-sided guess.
    """
    fn = module.get(name)
    out: dict[int, object] = {}
    for i, (vid, ty) in enumerate(fn.params):
        if not ty.is_differentiable:
            continue
        if ty.kind == "f64":
            out[vid] = _fd_coord(module, name, args, seeds, step_limit, i, None)
        else:
            flat = [
                _fd_coord(module, name, args, seeds, step_limit, i, j)
                for j in range(len(args[i].flat()))
            ]
            out[vid] = DenseTensor.from_flat(ty.shape, flat)
    return out


def _fd_coord(module, name, args, seeds, step_limit, i, j) -> float:
    def bump(delta: float) -> tuple:
        new = list(args)
        if j is None:
            new[i] = args[i] + delta
        else:
            flat = list(args[i].flat())
            flat[j] += delta
            new[i] = DenseTensor.from_flat(args[i].shape, flat)
        return tuple(new)

    x = args[i] if j is None else args[i].flat()[j]
    h = 1e-6 * max(1.0, abs(x))
    up = _objective(module, name, bump(h), seeds, step_limit)
    dn = _objective(module, name, bump(-h), seeds, step_limit)
    return (up - dn) / (2.0 * h)
