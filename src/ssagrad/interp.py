"""Reference evaluator.

Runtime values are float, bool, int, DenseTensor, Tape (a persistent
cons list) and TapeBatch (one Tape per lane).  Tapes are immutable so
a push never disturbs older references; the batching transform leans
on this to discard a lane's speculative pushes by keeping the older
tape value.

Reading an empty tape is not an error: tape_top yields a zero of the
requested type and tape_rest stays empty.  The second-order transform
differentiates tape traffic itself and needs reads past the end to act
as zeros; batched code reads lanes speculatively for the same reason.

``Machine.run`` is the only block walker.  Each op's semantics is one
entry of ``KERNELS``; forward mode and the tape oracle are Machines
whose tables wrap these entries, so all three share the walker, the
step budget and the EvalError locations.
"""

from __future__ import annotations

import operator
from itertools import repeat

from . import tensor as T
from .ir import Function, Jmp, Module, Ret, Type, term_uses
from .tensor import DenseTensor, DomainError

DEFAULT_STEP_LIMIT = 2_000_000


class EvalError(Exception):
    def __init__(self, function: str, block: str, index: int, message: str):
        self.function = function
        self.block = block
        self.index = index
        self.message = message
        where = f"@{function} ^{block}" if block else f"@{function}"
        if index >= 0:
            where += f" instr {index}"
        super().__init__(f"{where}: {message}")


class Tape:
    """Persistent LIFO trace; the empty tape is the shared EMPTY_TAPE."""

    __slots__ = ("top", "rest")

    def __init__(self, top=None, rest: "Tape | None" = None):
        self.top = top
        self.rest = rest

    @property
    def empty(self) -> bool:
        return self.rest is None

    def __len__(self) -> int:
        n, t = 0, self
        while not t.empty:
            n, t = n + 1, t.rest
        return n

    def __repr__(self):
        return f"<tape depth={len(self)}>"


EMPTY_TAPE = Tape()


class TapeBatch:
    """One independent tape per lane."""

    __slots__ = ("lanes",)

    def __init__(self, lanes: tuple[Tape, ...]):
        self.lanes = lanes

    def __repr__(self):
        return f"<tapes {'/'.join(str(len(t)) for t in self.lanes)}>"


def zero_of(ty: Type):
    if ty.kind == "f64":
        return 0.0
    if ty.kind == "bool":
        return False
    if ty.kind == "i64":
        return 0
    if ty.is_tensor:
        return DenseTensor.zeros(ty.shape)
    if ty.kind == "tape":
        return EMPTY_TAPE
    if ty.kind == "tapes":
        return TapeBatch((EMPTY_TAPE,) * ty.lanes)
    raise ValueError(f"no zero for {ty}")


# ----------------------------------------------------------- kernels
#
# One kernel per op: kernel(machine, attrs, env, operand_ids) reads its
# own operands from env, so the walker passes what it holds without
# gathering a list first.  Subclasses of Machine wrap these kernels and
# call them on a plain list of unboxed values with ids range(n).


def _arith(i64_op, op):
    def kernel(m, attrs, env, a):
        x, y = env[a[0]], env[a[1]]
        if isinstance(x, int) and isinstance(y, int) and not isinstance(x, bool):
            return i64_op(x, y)
        return op(x, y)
    return kernel


def _i64_div(x, y):
    raise DomainError("div is not defined on i64")


def _unary(name: str, f):
    def kernel(m, attrs, env, a):
        x = env[a[0]]
        if isinstance(x, DenseTensor):
            return T.unary_math(name, x)
        return f(x)
    return kernel


def _compare(name: str, f):
    def kernel(m, attrs, env, a):
        x, y = env[a[0]], env[a[1]]
        if isinstance(x, DenseTensor) or isinstance(y, DenseTensor):
            return T.compare(name, x, y)
        return f(x, y)
    return kernel


def _const(m, attrs, env, a):
    ty = attrs["ty"]
    v = attrs["value"]
    if ty.is_tensor:
        return DenseTensor.from_flat(ty.shape, v)
    if ty.kind == "f64":
        return float(v)
    if ty.kind == "i64":
        return int(v)
    return bool(v)


def _pow_int(m, attrs, env, a):
    x = env[a[0]]
    if isinstance(x, DenseTensor):
        return T.pow_int(x, attrs["n"])
    return T.scalar_pow_int(x, attrs["n"])


def _select(m, attrs, env, a):
    c, x, y = env[a[0]], env[a[1]], env[a[2]]
    if isinstance(c, bool):
        return x if c else y
    if isinstance(x, TapeBatch):
        return TapeBatch(tuple(
            xt if c.data[i] != 0.0 else yt for i, (xt, yt) in enumerate(zip(x.lanes, y.lanes))
        ))
    return T.select_mask(c, x, y)


def _stack(m, attrs, env, a):
    vals = [env[o] for o in a]
    if all(not isinstance(v, DenseTensor) for v in vals):
        return DenseTensor.from_flat((len(vals),), vals)
    return T.stack(vals, attrs.get("axis", 0))


def _call(m, attrs, env, a):
    return m.run(m.module.get(attrs["fn"].name), tuple(env[o] for o in a))[0]


def _tape_push(m, attrs, env, a):
    t, v = env[a[0]], env[a[1]]
    per_lane = bool(attrs.get("per_lane", False))
    if isinstance(t, Tape) and per_lane:
        t = TapeBatch((t,) * v.shape[0])
    if isinstance(t, TapeBatch):
        if per_lane:
            rows = T.unstack(v) if len(v.shape) > 1 else list(v.data)
            return TapeBatch(tuple(Tape(r, l) for r, l in zip(rows, t.lanes)))
        return TapeBatch(tuple(Tape(v, l) for l in t.lanes))
    return Tape(v, t)


def _tape_top(m, attrs, env, a):
    t, ty = env[a[0]], attrs["ty"]
    if isinstance(t, TapeBatch):
        lane_shape = ty.shape[1:]
        out = [_lane_value(l.top, lane_shape) if not l.empty else None for l in t.lanes]
        if lane_shape:
            z = DenseTensor.zeros(lane_shape)
            return T.stack([z if v is None else v for v in out], 0)
        return DenseTensor.from_flat(ty.shape, [0.0 if v is None else v for v in out])
    if t.empty:
        return zero_of(ty)
    return t.top


def _tape_rest(m, attrs, env, a):
    t = env[a[0]]
    if isinstance(t, TapeBatch):
        return TapeBatch(tuple(l.rest if not l.empty else l for l in t.lanes))
    return t.rest if not t.empty else t


def _tape_expect_empty(m, attrs, env, a):
    t = env[a[0]]
    lanes = t.lanes if isinstance(t, TapeBatch) else (t,)
    left = [len(l) for l in lanes if not l.empty]
    if left:
        raise DomainError(f"trace should be used up, {max(left)} entries remain")
    return True


KERNELS = {
    "const": _const,
    "add": _arith(operator.add, T.add),
    "sub": _arith(operator.sub, T.sub),
    "mul": _arith(operator.mul, T.mul),
    "div": _arith(_i64_div, T.div),
    "neg": lambda m, attrs, env, a: T.neg(env[a[0]]),
    **{name: _unary(name, f) for name, f in T.SCALAR_UNARY.items()},
    "pow_int": _pow_int,
    "itof": lambda m, attrs, env, a: float(env[a[0]]),
    "lt": _compare("lt", operator.lt),
    "gt": _compare("gt", operator.gt),
    "eq": _compare("eq", operator.eq),
    "select": _select,
    "matmul": lambda m, attrs, env, a: T.matmul(env[a[0]], env[a[1]]),
    "bmm": lambda m, attrs, env, a: T.bmm(env[a[0]], env[a[1]]),
    "transpose": lambda m, attrs, env, a: T.transpose(env[a[0]]),
    "reshape": lambda m, attrs, env, a: T.reshape(env[a[0]], attrs["shape"]),
    "reduce_sum": lambda m, attrs, env, a: T.reduce_sum(env[a[0]], attrs.get("axis", "all")),
    "bcast": lambda m, attrs, env, a: T.bcast_to(env[a[0]], attrs["shape"]),
    "reduce_to": lambda m, attrs, env, a: T.reduce_to(env[a[0]], attrs["shape"]),
    "stack": _stack,
    "unstack": lambda m, attrs, env, a: T.take(env[a[0]], attrs["index"], attrs.get("axis", 0)),
    "fused_map": lambda m, attrs, env, a: m._fused_map(
        m.module.get(attrs["fn"].name), [env[o] for o in a]),
    "fused_pack": lambda m, attrs, env, a: m._fused_pack(
        m.module.get(attrs["fn"].name), [env[o] for o in a]),
    "call": _call,
    "tape_new": lambda m, attrs, env, a: EMPTY_TAPE,
    "tape_push": _tape_push,
    "tape_top": _tape_top,
    "tape_rest": _tape_rest,
    "tape_spread": lambda m, attrs, env, a: TapeBatch((env[a[0]],) * attrs["lanes"]),
    "tape_expect_empty": _tape_expect_empty,
}


# ------------------------------------------------------ block walker


class Machine:
    """Evaluator over a module; one instance per top-level call.

    ``kernels`` maps each op to its kernel; subclasses swap the table
    to run the same walker over boxed values.  ``budget`` is a mutable
    [remaining-steps] cell, shared with nested machines so every call
    draws from one allowance.
    """

    kernels = KERNELS

    def __init__(self, module: Module, step_limit: int = DEFAULT_STEP_LIMIT):
        self.module = module
        self.budget = [step_limit]

    def call(self, name: str, args: tuple) -> tuple:
        return self.run(self.module.get(name), args)

    def run(self, fn: Function, args: tuple) -> tuple:
        """Execute fn's blocks on args; the only block walker."""
        if len(args) != len(fn.params):
            raise EvalError(fn.name, "", -1,
                            f"expected {len(fn.params)} arguments, got {len(args)}")
        kernels = self.kernels
        budget = self.budget
        blocks = {b.name: b for b in fn.blocks}
        env: dict[int, object] = {}
        cur = fn.blocks[0]
        binds = args
        while True:
            for (vid, _), v in zip(cur.params, binds):
                env[vid] = v
            for i, ins in enumerate(cur.body):
                budget[0] -= 1
                if budget[0] < 0:
                    raise EvalError(fn.name, cur.name, i, "step limit exhausted")
                try:
                    kernel = kernels[ins.op]
                except KeyError:
                    raise EvalError(fn.name, cur.name, i,
                                    f"op '{ins.op}' has no evaluation rule") from None
                try:
                    env[ins.result] = kernel(self, ins.attrs, env, ins.operands)
                except DomainError as e:
                    raise EvalError(fn.name, cur.name, i, str(e)) from e
                except KeyError:
                    _raise_unbound(fn, cur.name, i, env, ins.operands)
                    raise
            budget[0] -= 1
            if budget[0] < 0:
                raise EvalError(fn.name, cur.name, len(cur.body), "step limit exhausted")
            t = cur.term
            if t is None:
                raise EvalError(fn.name, cur.name, len(cur.body), "missing terminator")
            try:
                if isinstance(t, Ret):
                    return tuple(env[v] for v in t.values)
                if isinstance(t, Jmp):
                    cur, binds = blocks[t.target], tuple(env[a] for a in t.args)
                elif env[t.cond]:
                    cur, binds = blocks[t.then_target], tuple(env[a] for a in t.then_args)
                else:
                    cur, binds = blocks[t.else_target], tuple(env[a] for a in t.else_args)
            except KeyError:
                _raise_unbound(fn, cur.name, len(cur.body), env, term_uses(cur))
                raise

    # fused scalar kernels

    def _fused_map(self, fn: Function, vals: list):
        """fn at every point of its broadcast operands, as a plain machine call."""
        shape, points = _fused_points(vals)
        out = [self.run(fn, p)[0] for p in points]
        return DenseTensor.from_flat(shape, out) if shape else out[0]

    def _fused_pack(self, fn: Function, vals: list) -> DenseTensor:
        """fn's value and partials at every point: rows 0 and 1+i of a (1+k,)+shape tensor."""
        from .forward_ad import pack_rows

        k = len(vals)
        shape, points = _fused_points(vals)
        cols = [pack_rows(self, fn, p) for p in points]
        data = [c[r] for r in range(1 + k) for c in cols]
        return DenseTensor.from_flat((1 + k,) + shape, data)


def _raise_unbound(fn: Function, block: str, index: int, env: dict, ids) -> None:
    """Raise a located EvalError for the first of ids with no value in env;
    return if all are bound, so the caller re-raises its own KeyError."""
    for v in ids:
        if v not in env:
            raise EvalError(fn.name, block, index,
                            f"%{fn.value_name(v)} has no value on this path")


def _fused_points(vals: list) -> tuple[tuple[int, ...], list[tuple]]:
    """The broadcast shape of a fused kernel's operands and its points in row-major order."""
    shape: tuple[int, ...] = ()
    for v in vals:
        if isinstance(v, DenseTensor):
            shape = T.broadcast_shapes(shape, v.shape)
    if not shape:
        return shape, [tuple(vals)]
    # at least one operand is a tensor, so its column bounds the zip
    cols = [T.bcast_to(v, shape).flat() if isinstance(v, DenseTensor) else repeat(float(v))
            for v in vals]
    return shape, list(zip(*cols))


def _lane_value(v, lane_shape: tuple[int, ...]):
    """A lane's top coerced to the requested per-lane shape, or None."""
    if lane_shape:
        if isinstance(v, DenseTensor) and v.shape == lane_shape:
            return v
        return None
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, float):
        return v
    if isinstance(v, int):
        return float(v)
    return None


def eval_function(
    module: Module,
    name: str,
    args: tuple,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> tuple:
    """Evaluate @name on args; returns the tuple of results."""
    return Machine(module, step_limit).call(name, args)
