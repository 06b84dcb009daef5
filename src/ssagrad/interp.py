"""Reference evaluator.

Runtime values are float, bool, int, DenseTensor, Tape (a persistent
cons list) and TapeBatch: a batched trace, one node per lane in a table
of nodes shared by the traces of one tape_spread (``_Table``), so that
its kernels cost a few numpy calls at any lane count.  A push never
disturbs older references; the batching transform leans on this to
discard a lane's speculative pushes by keeping the older trace value.

Reading an empty tape is not an error: tape_top yields a zero of the
requested type and tape_rest stays empty.  The second-order transform
differentiates tape traffic itself and needs reads past the end to act
as zeros; batched code reads lanes speculatively for the same reason.

``Machine.run`` is the only block walker.  Each op's semantics is one
entry of ``KERNELS``, keyed like ``ops.OPS``; forward mode and the tape
oracle are Machines whose tables wrap these entries, so all three share
the walker, the step budget and the EvalError locations.

A fused_map or fused_pack over tensors runs its scalar body once, on
whole rows, where the kernels are elementwise and bit-identical to one
point.  That needs the body and all it reaches to be single blocks of
ops that ``ops.OPS`` declares elementwise (``_rows_exact``), since a br
on a row mask would read as true.  The run is charged its steps once
per element.  Control flow, and a row run that fails or would overdraw
the budget, run the body at each point instead, so a fault is raised
where it arises there.

Kernels let inf and nan flow and raise on domain faults; each public
function that runs the walker turns numpy's floating-point warnings off
once (``np.errstate``), as a scope costs more than most kernels.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import repeat
from math import prod

import numpy as np

from . import tensor as T
from .ir import F64, Function, Jmp, Module, Ret, Type, tensor_type, term_uses
from .ops import OPS
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

    def __iter__(self):
        t = self
        while not t.empty:
            yield t.top
            t = t.rest

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self):
        return f"<tape depth={len(self)}>"


EMPTY_TAPE = Tape()


class _Table:
    """The append-only nodes of one family of batched traces.

    Node 0 is the empty trace.  Every other node holds (value, per_lane),
    its parent and its depth: a per-lane value is a (lanes, ...) tensor
    whose row i belongs to lane i, any other value is shared by every
    lane.  Nodes never change once written.
    """

    __slots__ = ("lanes", "values", "parent", "depth")

    def __init__(self, lanes: int):
        self.lanes, self.values, self.depth = lanes, [(None, False)], [0]
        self.parent = np.zeros(8, np.int64)

    def append(self, value, per_lane: bool, at):
        """One node holding value on each distinct node of at; the lanes' new nodes."""
        n = len(self.values)
        nodes = [at] if isinstance(at, int) else np.array(sorted(set(at.tolist())))
        new = n if isinstance(at, int) else nodes.searchsorted(at) + n
        if n + len(nodes) > len(self.parent):
            self.parent = np.resize(self.parent, 2 * (n + len(nodes)))
        self.parent[n:n + len(nodes)] = nodes
        self.depth += [self.depth[p] + 1 for p in nodes]
        self.values += [(value, per_lane)] * len(nodes)
        return new

    def adopt(self, t: "TapeBatch") -> "TapeBatch":
        """t in this table, by a copy of the nodes t reaches."""
        src, new, at = t.table, {0: 0}, np.ravel(t.at).tolist()
        todo = list(at)
        while todo:
            n = todo.pop()
            if n not in new:
                new[n] = None
                todo.append(int(src.parent[n]))
        for n in sorted(new)[1:]:  # a parent is older than its children
            new[n] = self.append(*src.values[n], new[int(src.parent[n])])
        return TapeBatch(self, _merged(np.array([new[n] for n in at])))


class TapeBatch:
    """A batched trace: each lane's node in a shared _Table, one int while
    every lane is at the same node, else an int64 array of length lanes."""

    __slots__ = ("table", "at")

    def __init__(self, table: _Table, at):
        self.table, self.at = table, at

    def top(self, shape: tuple[int, ...]) -> DenseTensor:
        """Each lane's top as one (lanes, ...) tensor, by _lane_value's rules."""
        if isinstance(self.at, int):
            out = self._fill(self.at, shape)
        else:
            first, *rest = sorted(set(self.at.tolist()))
            at, out = self.at.reshape((-1,) + (1,) * (len(shape) - 1)), self._fill(first, shape)
            for n in rest:
                out = np.where(at == n, self._fill(n, shape), out)
        return DenseTensor._own(out if np.shape(out) == shape else np.full(shape, out))

    def _fill(self, n: int, shape: tuple[int, ...]):
        """Node n's entries as an array or float that broadcasts to shape."""
        v, per_lane = self.table.values[n]
        if per_lane:
            return v.data if v.shape[1:] == shape[1:] else 0.0
        v = _lane_value(v, shape[1:])
        return 0.0 if v is None else v.data if isinstance(v, DenseTensor) else v

    def depths(self) -> list[int]:
        at = [self.at] * self.table.lanes if isinstance(self.at, int) else self.at.tolist()
        return [self.table.depth[n] for n in at]

    def __repr__(self):
        return f"<tapes {'/'.join(map(str, self.depths()))}>"


def _merged(at: np.ndarray) -> "int | np.ndarray":
    """at, or its one node when every lane is there."""
    return at if len(set(at.tolist())) > 1 else int(at[0])


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
        return TapeBatch(_Table(ty.lanes), 0)
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
        y = y if y.table is x.table else x.table.adopt(y)
        return TapeBatch(x.table, _merged(np.where(c.data != 0.0, x.at, y.at)))
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
    if isinstance(t, TapeBatch):
        per_lane = bool(attrs.get("per_lane"))
        if per_lane and not (isinstance(v, DenseTensor) and v.shape[0] == t.table.lanes):
            got = f"shape {v.shape}" if isinstance(v, DenseTensor) else f"a {type(v).__name__}"
            raise ValueError(f"per-lane tape_push of {got} onto tapes<{t.table.lanes}>")
        return TapeBatch(t.table, t.table.append(v, per_lane, t.at))
    return Tape(v, t)


def _tape_top(m, attrs, env, a):
    t, ty = env[a[0]], attrs["ty"]
    if isinstance(t, TapeBatch):
        return t.top(ty.shape)
    if t.empty:
        return zero_of(ty)
    return t.top


def _tape_rest(m, attrs, env, a):
    t = env[a[0]]
    if isinstance(t, TapeBatch):
        at = t.table.parent[t.at]
        return TapeBatch(t.table, int(at) if isinstance(t.at, int) else _merged(at))
    return t.rest if not t.empty else t


def _tape_spread(m, attrs, env, a):
    table, at = _Table(attrs["lanes"]), 0
    for v in reversed(list(env[a[0]])):
        at = table.append(v, False, at)
    return TapeBatch(table, at)


def _tape_expect_empty(m, attrs, env, a):
    t = env[a[0]]
    left = max(t.depths()) if isinstance(t, TapeBatch) else len(t)
    if left:
        raise DomainError(f"trace should be used up, {left} entries remain")
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
    "tape_spread": _tape_spread,
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
        blocks = None  # built at the first jump: most calls never take one
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
                except (TypeError, AttributeError, ValueError, IndexError) as e:
                    raise EvalError(fn.name, cur.name, i, str(e)) from e
                except RecursionError:
                    # Python's message varies with where the limit is hit
                    raise EvalError(fn.name, cur.name, i,
                                    "maximum recursion depth exceeded") from None
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
                if blocks is None:
                    blocks = {b.name: b for b in fn.blocks}
                if isinstance(t, Jmp):
                    nxt, binds = blocks[t.target], tuple(env[a] for a in t.args)
                elif env[t.cond]:
                    nxt, binds = blocks[t.then_target], tuple(env[a] for a in t.then_args)
                else:
                    nxt, binds = blocks[t.else_target], tuple(env[a] for a in t.else_args)
            except KeyError as e:
                _raise_unbound(fn, cur.name, len(cur.body), env, term_uses(cur))
                # every read is bound, so the missing key is a block name
                raise EvalError(fn.name, cur.name, len(cur.body),
                                f"terminator targets unknown block ^{e.args[0]}") from None
            if len(binds) != len(nxt.params):
                raise EvalError(fn.name, cur.name, len(cur.body),
                                f"edge to ^{nxt.name} passes {len(binds)} args "
                                f"for {len(nxt.params)} params")
            cur = nxt

    # fused scalar kernels

    def _fused_map(self, fn: Function, vals: list):
        """fn at every point of its broadcast operands."""
        rows = _RowMachine(self.module, self.budget)
        return self._fused(
            fn, vals, lambda ty, args: [(rows if ty.is_tensor else self).run(fn, args)[0]])[0]

    def _fused_pack(self, fn: Function, vals: list) -> DenseTensor:
        """fn's value and partials at every point: rows 0 and 1+i of a (1+k,)+shape tensor."""
        from .forward_ad import pack_rows

        rows = self._fused(fn, vals, lambda ty, args: pack_rows(self, fn, args, ty))
        return _stack(self, {}, rows, range(len(rows)))

    def _fused(self, fn: Function, vals: list, point) -> list:
        """fn's outputs from point(ty, args) at each broadcast point of vals
        (ty is f64), or from one run on whole rows (ty is a tensor type)."""
        shape = reduce(T.broadcast_shapes, (v.shape for v in vals if isinstance(v, DenseTensor)), ())
        if not shape:
            return point(F64, tuple(vals))
        args = [T.bcast_to(v, shape) if isinstance(v, DenseTensor) else float(v) for v in vals]
        budget, left = self.budget, self.budget[0]
        if _rows_exact(self.module, fn):
            try:
                rows = point(tensor_type(*shape), tuple(args))
            except Exception:  # raised again below, at its own point
                rows = None
            # straight-line code takes the same steps at every point
            cost, budget[0] = (left - budget[0]) * prod(shape), left
            if rows is not None and cost <= left:
                budget[0] -= cost
                return [T.bcast_to(r, shape) for r in rows]
        cols = [a.flat() if isinstance(a, DenseTensor) else repeat(a) for a in args]
        return [DenseTensor.from_flat(shape, r) for r in zip(*(point(F64, p) for p in zip(*cols)))]


class _RowMachine(Machine):
    """Machine over rows on the budget it is given; a nested fused_map is a call."""

    kernels = {**KERNELS, "fused_map": KERNELS["call"]}

    def __init__(self, module: Module, budget: list[int]):
        self.module, self.budget = module, budget


# an elementwise op is bit-identical on rows to one point
_ELEMENTWISE = frozenset(op for op, d in OPS.items() if d.elementwise)


def _rows_exact(module: Module, fn: Function, path: tuple[str, ...] = ()) -> bool:
    """Whether fn and all it reaches are single blocks of elementwise ops,
    scalar constants and calls (which run on rows too), without recursion."""
    if fn.name in path or len(fn.blocks) != 1 or not isinstance(fn.blocks[0].term, Ret):
        return False
    path += (fn.name,)
    for ins in fn.blocks[0].body:
        if ins.op == "const" and ins.attrs["ty"].is_tensor \
                or ins.op not in _ELEMENTWISE and ins.op not in ("const", "call"):
            return False
        if ins.op in ("call", "fused_map"):
            callee = module.functions.get(ins.attrs["fn"].name)
            if callee is None or not _rows_exact(module, callee, path):
                return False
    return True


def _raise_unbound(fn: Function, block: str, index: int, env: dict, ids) -> None:
    """Raise a located EvalError for the first of ids with no value in env;
    return if all are bound, so the caller re-raises its own KeyError."""
    for v in ids:
        if v not in env:
            raise EvalError(fn.name, block, index,
                            f"%{fn.value_name(v)} has no value on this path")


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


@np.errstate(all="ignore")
def eval_function(
    module: Module,
    name: str,
    args: tuple,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> tuple:
    """Evaluate @name on args; returns the tuple of results."""
    return Machine(module, step_limit).call(name, args)
