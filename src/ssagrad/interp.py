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
"""

from __future__ import annotations

from . import tensor as T
from .ir import Br, Function, Instruction, Jmp, Module, Ret, Type
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


# ------------------------------------------------------ block walker


def run_blocks(fn: Function, args: tuple, dispatch, budget: list[int]) -> tuple:
    """Execute a function's blocks with a caller-supplied op dispatch.

    ``dispatch(ins, env)`` returns the instruction's value.  ``budget``
    is a shared mutable [remaining-steps] cell so nested calls draw from
    one allowance.
    """
    if len(args) != len(fn.params):
        raise EvalError(fn.name, "", -1, f"expected {len(fn.params)} arguments, got {len(args)}")
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
                env[ins.result] = dispatch(ins, env)
            except DomainError as e:
                raise EvalError(fn.name, cur.name, i, str(e)) from e
        budget[0] -= 1
        if budget[0] < 0:
            raise EvalError(fn.name, cur.name, len(cur.body), "step limit exhausted")
        t = cur.term
        if t is None:
            raise EvalError(fn.name, cur.name, len(cur.body), "missing terminator")
        if isinstance(t, Ret):
            return tuple(env[v] for v in t.values)
        if isinstance(t, Jmp):
            cur, binds = blocks[t.target], tuple(env[a] for a in t.args)
        else:
            assert isinstance(t, Br)
            c = env[t.cond]
            if c:
                cur, binds = blocks[t.then_target], tuple(env[a] for a in t.then_args)
            else:
                cur, binds = blocks[t.else_target], tuple(env[a] for a in t.else_args)


# -------------------------------------------------- real-domain ops


def _scalar_compare(op: str, a, b) -> bool:
    if op == "lt":
        return a < b
    if op == "gt":
        return a > b
    return a == b


def _numeric(op: str, a, b):
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool):
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        raise DomainError("div is not defined on i64")
    return {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div}[op](a, b)


class Machine:
    """Evaluator over a module; one instance per top-level call."""

    def __init__(self, module: Module, step_limit: int = DEFAULT_STEP_LIMIT):
        self.module = module
        self.budget = [step_limit]

    def call(self, name: str, args: tuple) -> tuple:
        fn = self.module.get(name)
        return run_blocks(fn, args, self.dispatch, self.budget)

    # one method per op would be noisy; a single match keeps the whole
    # semantics readable top to bottom
    def dispatch(self, ins: Instruction, env: dict):
        op = ins.op
        a = ins.operands

        if op == "const":
            ty = ins.attrs["ty"]
            v = ins.attrs["value"]
            if ty.is_tensor:
                return DenseTensor.from_flat(ty.shape, v)
            if ty.kind == "f64":
                return float(v)
            if ty.kind == "i64":
                return int(v)
            return bool(v)

        if op in ("add", "sub", "mul", "div"):
            return _numeric(op, env[a[0]], env[a[1]])
        if op == "neg":
            return T.neg(env[a[0]])
        if op in T.SCALAR_UNARY:
            x = env[a[0]]
            if isinstance(x, DenseTensor):
                return T.unary_math(op, x)
            return T.SCALAR_UNARY[op](x)
        if op == "pow_int":
            n = ins.attrs["n"]
            x = env[a[0]]
            if isinstance(x, DenseTensor):
                return T.pow_int(x, n)
            return T.scalar_pow_int(x, n)
        if op == "itof":
            return float(env[a[0]])

        if op in ("lt", "gt", "eq"):
            x, y = env[a[0]], env[a[1]]
            if isinstance(x, DenseTensor) or isinstance(y, DenseTensor):
                return T.compare(op, x, y)
            return _scalar_compare(op, x, y)

        if op == "select":
            c, x, y = env[a[0]], env[a[1]], env[a[2]]
            if isinstance(c, bool):
                return x if c else y
            if isinstance(x, TapeBatch):
                picked = tuple(
                    xt if c.data[i] != 0.0 else yt
                    for i, (xt, yt) in enumerate(zip(x.lanes, y.lanes))
                )
                return TapeBatch(picked)
            return T.select_mask(c, x, y)

        if op == "matmul":
            return T.matmul(env[a[0]], env[a[1]])
        if op == "bmm":
            return T.bmm(env[a[0]], env[a[1]])
        if op == "transpose":
            return T.transpose(env[a[0]])
        if op == "reshape":
            return T.reshape(env[a[0]], ins.attrs["shape"])
        if op == "reduce_sum":
            return T.reduce_sum(env[a[0]], ins.attrs.get("axis", "all"))
        if op == "bcast":
            return T.bcast_to(env[a[0]], ins.attrs["shape"])
        if op == "reduce_to":
            return T.reduce_to(env[a[0]], ins.attrs["shape"])
        if op == "stack":
            vals = [env[o] for o in a]
            axis = ins.attrs.get("axis", 0)
            if all(not isinstance(v, DenseTensor) for v in vals):
                return DenseTensor.from_flat((len(vals),), vals)
            return T.stack(vals, axis)
        if op == "unstack":
            return T.take(env[a[0]], ins.attrs["index"], ins.attrs.get("axis", 0))

        if op == "fused_map":
            return self._fused_map(ins, [env[o] for o in a])
        if op == "fused_pack":
            return self._fused_pack(ins, [env[o] for o in a])
        if op == "call":
            return self.call(ins.attrs["fn"].name, tuple(env[o] for o in a))[0]

        if op == "tape_new":
            return EMPTY_TAPE
        if op == "tape_push":
            return self._tape_push(env[a[0]], env[a[1]], bool(ins.attrs.get("per_lane", False)))
        if op == "tape_top":
            return self._tape_top(env[a[0]], ins.attrs["ty"])
        if op == "tape_rest":
            t = env[a[0]]
            if isinstance(t, TapeBatch):
                return TapeBatch(tuple(l.rest if not l.empty else l for l in t.lanes))
            return t.rest if not t.empty else t
        if op == "tape_spread":
            return TapeBatch((env[a[0]],) * ins.attrs["lanes"])
        if op == "tape_expect_empty":
            t = env[a[0]]
            lanes = t.lanes if isinstance(t, TapeBatch) else (t,)
            left = [len(l) for l in lanes if not l.empty]
            if left:
                raise DomainError(f"trace should be used up, {max(left)} entries remain")
            return True

        raise DomainError(f"op '{op}' has no evaluation rule")

    # tape traffic

    def _tape_push(self, t, v, per_lane: bool):
        if isinstance(t, Tape) and per_lane:
            t = TapeBatch((t,) * v.shape[0])
        if isinstance(t, TapeBatch):
            if per_lane:
                rows = T.unstack(v) if len(v.shape) > 1 else list(v.data)
                return TapeBatch(tuple(Tape(r, l) for r, l in zip(rows, t.lanes)))
            return TapeBatch(tuple(Tape(v, l) for l in t.lanes))
        return Tape(v, t)

    def _tape_top(self, t, ty: Type):
        if isinstance(t, TapeBatch):
            lane_shape = ty.shape[1:]
            out = []
            for l in t.lanes:
                out.append(_lane_value(l.top, lane_shape) if not l.empty else None)
            if lane_shape:
                z = DenseTensor.zeros(lane_shape)
                return T.stack([z if v is None else v for v in out], 0)
            return DenseTensor.from_flat(ty.shape, [0.0 if v is None else v for v in out])
        if t.empty:
            return zero_of(ty)
        return t.top

    # fused scalar kernels

    def _fused_map(self, ins: Instruction, vals: list):
        fn = self.module.get(ins.attrs["fn"].name)
        shape: tuple[int, ...] = ()
        for v in vals:
            if isinstance(v, DenseTensor):
                shape = T.broadcast_shapes(shape, v.shape)
        if not shape:
            return self.scalar_call(fn, tuple(vals))
        flat = [_spread_flat(v, shape) for v in vals]
        out = [self.scalar_call(fn, tuple(col[i] for col in flat)) for i in range(len(flat[0]))]
        return DenseTensor.from_flat(shape, out)

    def _fused_pack(self, ins: Instruction, vals: list):
        from .forward_ad import pack_rows

        fn = self.module.get(ins.attrs["fn"].name)
        k = len(vals)
        shape: tuple[int, ...] = ()
        for v in vals:
            if isinstance(v, DenseTensor):
                shape = T.broadcast_shapes(shape, v.shape)
        if not shape:
            rows = pack_rows(self, fn, tuple(vals))
            return DenseTensor.from_flat((1 + k,), rows)
        flat = [_spread_flat(v, shape) for v in vals]
        n = len(flat[0])
        cols = [pack_rows(self, fn, tuple(col[i] for col in flat)) for i in range(n)]
        data = []
        for r in range(1 + k):
            data.extend(c[r] for c in cols)
        return DenseTensor.from_flat((1 + k,) + shape, data)

    def scalar_call(self, fn: Function, args: tuple) -> float:
        out = run_blocks(fn, args, self.dispatch, self.budget)
        return out[0]


def _spread_flat(v, shape: tuple[int, ...]) -> list[float]:
    if isinstance(v, DenseTensor):
        return T.bcast_to(v, shape).flat()
    n = 1
    for d in shape:
        n *= d
    return [float(v)] * n


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
