"""The op table: every IR op's arity, type rule and properties.

``OPS`` holds one ``OpDef`` per op.  Its type rule makes
``result_type`` the single authority on op typing: ``structurize``
(and so ``verify``) types every parsed instruction with it, and
``SEmitter.emit`` types every instruction a transform emits.  It raises
OpTypeError with a human message when operand types, attributes or
cross-function references do not line up.  The properties are what the
transforms need to know of an op beyond its own rules: whether it is
elementwise, which operands a dead lane must not reach, whether its
result takes no cotangent, whether it is a trace op and whether it faults.

Adding an op takes an ``OPS`` row; a kernel in ``interp.KERNELS``; an
adjoint rule in ``rules.RULES``, unless the row declares no cotangent
or a trace op; and, unless the row is elementwise, a batching case in
``spmd_batch._CASES`` or a message in ``spmd_batch._BATCH_ERRORS``.
``tests/test_ops.py`` checks that every table covers ``OPS``.

Conventions baked in here:

* Scalar comparisons produce bool; tensor comparisons produce a 0/1
  float mask, which is also how batched functions represent per-lane
  conditions.
* select with a bool condition picks a whole value; select with a mask
  tensor picks elementwise, broadcasting all three operands.
* Arithmetic mixes f64 scalars with tensors freely (trailing-aligned
  broadcast) but never mixes i64 with f64; itof is the explicit cast.
* tape / tapes<B> are the trace carriers emitted by the AD and batching
  transforms.  They hold runtime values pushed in execution order and
  are consumed last-in first-out.
"""

from __future__ import annotations

from math import prod
from typing import Callable, NamedTuple

from .ir import BOOL, F64, I64, TAPE, FnRef, Function, Module, Type, tapes_type, tensor_type
from .tensor import broadcast_shapes, can_expand


class OpTypeError(TypeError):
    pass


def _fail(msg: str):
    raise OpTypeError(msg)


def _broadcast_result(op: str, a: Type, b: Type) -> Type:
    if a.kind == "f64" and b.kind == "f64":
        return F64
    shapes = []
    for t in (a, b):
        if t.is_tensor:
            shapes.append(t.shape)
        elif t.kind != "f64":
            _fail(f"{op} on {a} and {b}")
    try:
        out = shapes[0] if len(shapes) == 1 else broadcast_shapes(*shapes)
    except ValueError as e:
        _fail(f"{op}: {e}")
    return tensor_type(*out)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # True is an int to Python


def _shape_attr(op: str, attrs: dict, key: str) -> tuple[int, ...]:
    v = attrs.get(key)
    if not isinstance(v, tuple) or not v or any(not isinstance(d, int) or d < 1 for d in v):
        _fail(f"{op} needs attribute {key} = [positive extents]")
    return v  # type: ignore[return-value]


def _fn_attr(op: str, attrs: dict, module: Module | None) -> Function:
    ref = attrs.get("fn")
    if not isinstance(ref, FnRef):
        _fail(f"{op} needs attribute fn = @function")
    if module is None or ref.name not in module.functions:
        _fail(f"{op}: unknown function {ref}")
    return module.functions[ref.name]


# ------------------------------------------------------- type rules
#
# rule(op, operands, attrs, module) -> result Type, or OpTypeError;
# result_type has already checked a fixed arity.


def _const(op, operands, attrs, module):
    ty = attrs.get("ty")
    if not isinstance(ty, Type) or ty.kind not in ("f64", "i64", "bool", "tensor"):
        _fail("const needs ty in {f64, i64, bool, tensor<...>}")
    value = attrs.get("value")
    if ty.is_tensor:
        n = prod(ty.shape)
        if not isinstance(value, tuple) or len(value) != n:
            _fail(f"const {ty} needs {n} values")
    return ty


def _arith(op, operands, attrs, module):
    a, b = operands
    if a.kind == "i64" and b.kind == "i64":
        if op == "div":
            _fail("div is not defined on i64")
        return I64
    return _broadcast_result(op, a, b)


def _unary(op, operands, attrs, module):
    (a,) = operands
    if a.kind in ("f64", "tensor") or a.kind == "i64" and op == "neg":
        return a
    _fail(f"{op} on {a}")


def _pow_int(op, operands, attrs, module):
    n = attrs.get("n")
    if not _is_int(n) or n < 0:
        _fail("pow_int needs attribute n = non-negative integer")
    return _unary(op, operands, attrs, module)


def _itof(op, operands, attrs, module):
    if operands[0].kind != "i64":
        _fail(f"itof on {operands[0]}")
    return F64


def _compare(op, operands, attrs, module):
    a, b = operands
    if a.kind == b.kind and a.kind in ("i64", "f64"):
        return BOOL
    return _broadcast_result(op, a, b)


def _select(op, operands, attrs, module):
    c, a, b = operands
    if c.kind == "bool":
        if a != b:
            _fail(f"select arms differ: {a} vs {b}")
        return a
    if c.is_tensor:
        if a.kind == "tapes" and b.kind == "tapes":
            if a != b or c.shape != (a.lanes,):
                _fail(f"select on {c}, {a}, {b}")
            return a
        r = _broadcast_result(op, a, b)
        return _broadcast_result(op, c, r)
    _fail(f"select condition must be bool or mask tensor, got {c}")


def _matmul(op, operands, attrs, module):
    a, b = operands
    if not (a.is_tensor and b.is_tensor) or len(a.shape) != 2 or len(b.shape) != 2:
        _fail(f"matmul on {a}, {b}")
    if a.shape[1] != b.shape[0]:
        _fail(f"matmul inner extents differ: {a.shape} x {b.shape}")
    return tensor_type(a.shape[0], b.shape[1])


def _bmm(op, operands, attrs, module):
    a, b = operands
    if not (a.is_tensor and b.is_tensor and len(a.shape) == len(b.shape) == 3
            and a.shape[0] == b.shape[0] and a.shape[2] == b.shape[1]):
        _fail(f"bmm on {a}, {b}")
    return tensor_type(a.shape[0], a.shape[1], b.shape[2])


def _transpose(op, operands, attrs, module):
    (a,) = operands
    if not a.is_tensor or len(a.shape) < 2:
        _fail(f"transpose on {a}")
    s = list(a.shape)
    s[-1], s[-2] = s[-2], s[-1]
    return tensor_type(*s)


def _reshape(op, operands, attrs, module):
    shape = _shape_attr(op, attrs, "shape")
    (a,) = operands
    if not a.is_tensor:
        _fail(f"reshape on {a}")
    if prod(a.shape) != prod(shape):
        _fail(f"reshape {a.shape} to {shape} changes element count")
    return tensor_type(*shape)


def _reduce_sum(op, operands, attrs, module):
    (a,) = operands
    if not a.is_tensor:
        _fail(f"reduce_sum on {a}")
    axis = attrs.get("axis")
    if axis == "all":
        return F64
    if axis == "tail":
        return tensor_type(a.shape[0])
    if _is_int(axis) and 0 <= axis < len(a.shape):
        if len(a.shape) == 1:
            return F64
        s = list(a.shape)
        del s[axis]
        return tensor_type(*s)
    _fail(f"reduce_sum axis must be all, tail or an axis of {a}")


def _bcast(op, operands, attrs, module):
    shape = _shape_attr(op, attrs, "shape")
    (a,) = operands
    if a.kind == "f64":
        return tensor_type(*shape)
    if a.is_tensor and can_expand(a.shape, shape):
        return tensor_type(*shape)
    _fail(f"bcast of {a} to {shape}")


def _reduce_to(op, operands, attrs, module):
    shape = _shape_attr(op, attrs, "shape")
    (a,) = operands
    if a.is_tensor and can_expand(shape, a.shape):
        return tensor_type(*shape)
    _fail(f"reduce_to of {a} to {shape}")


def _stack(op, operands, attrs, module):
    if not operands:
        _fail("stack needs at least one operand")
    first = operands[0]
    if not first.is_tensor or any(t != first for t in operands):
        _fail(f"stack of {[str(t) for t in operands]}")
    axis = attrs.get("axis", 0)
    if not _is_int(axis) or not 0 <= axis <= len(first.shape):
        _fail(f"stack axis {axis!r} out of range for {first}")
    s = list(first.shape)
    s.insert(axis, len(operands))
    return tensor_type(*s)


def _unstack(op, operands, attrs, module):
    (a,) = operands
    if not a.is_tensor:
        _fail(f"unstack on {a}")
    axis = attrs.get("axis", 0)
    index = attrs.get("index")
    if not _is_int(axis) or not 0 <= axis < len(a.shape):
        _fail(f"unstack axis {axis!r} out of range for {a}")
    if not _is_int(index) or not 0 <= index < a.shape[axis]:
        _fail(f"unstack index {index!r} out of range for {a} axis {axis}")
    if len(a.shape) == 1:
        return F64
    s = list(a.shape)
    del s[axis]
    return tensor_type(*s)


def _fused(op, operands, attrs, module):
    fn = _fn_attr(op, attrs, module)
    if any(t.kind != "f64" for _, t in fn.params) or fn.results != (F64,):
        _fail(f"{op}: @{fn.name} must map f64 parameters to one f64 result")
    if len(operands) != len(fn.params):
        _fail(f"{op}: @{fn.name} takes {len(fn.params)} args, got {len(operands)}")
    shape: tuple[int, ...] = ()
    for t in operands:
        if t.is_tensor:
            try:
                shape = broadcast_shapes(shape, t.shape)
            except ValueError as e:
                _fail(f"{op}: {e}")
        elif t.kind != "f64":
            _fail(f"{op} operand of type {t}")
    if op == "fused_map":
        return tensor_type(*shape) if shape else F64
    return tensor_type(1 + len(operands), *shape)


def _call(op, operands, attrs, module):
    fn = _fn_attr(op, attrs, module)
    if len(fn.results) != 1:
        _fail(f"call: @{fn.name} must have exactly one result")
    want = tuple(t for _, t in fn.params)
    if operands != want:
        _fail(
            f"call @{fn.name}: operand types {[str(t) for t in operands]} "
            f"do not match parameters {[str(t) for t in want]}"
        )
    return fn.results[0]


def _tape_push(op, operands, attrs, module):
    t, v = operands
    per_lane = bool(attrs.get("per_lane", False))
    if t.kind == "tape":
        if per_lane:
            _fail("per-lane tape_push onto tape")
        return TAPE
    if t.kind == "tapes":
        if per_lane and (not v.is_tensor or v.shape[0] != t.lanes):
            _fail(f"per-lane tape_push of {v} onto {t}")
        return t
    _fail(f"tape_push onto {t}")


def _tape_top(op, operands, attrs, module):
    (t,) = operands
    ty = attrs.get("ty")
    if not isinstance(ty, Type):
        _fail("tape_top needs attribute ty = type")
    if t.kind == "tape":
        return ty
    if t.kind == "tapes":
        if not attrs.get("per_lane") or not ty.is_tensor or ty.shape[0] != t.lanes:
            _fail(f"tape_top of {ty} from {t} must be per-lane with leading {t.lanes}")
        return ty
    _fail(f"tape_top on {t}")


def _tape_read(op, operands, attrs, module):
    (t,) = operands
    if t.kind not in ("tape", "tapes"):
        _fail(f"{op} on {t}")
    return t if op == "tape_rest" else BOOL


def _tape_spread(op, operands, attrs, module):
    lanes = attrs.get("lanes")
    if not _is_int(lanes) or lanes < 1:
        _fail("tape_spread needs attribute lanes = positive integer")
    if operands[0].kind != "tape":
        _fail(f"tape_spread on {operands[0]}")
    return tapes_type(lanes)


# --------------------------------------------------------- the table


class OpDef(NamedTuple):
    """One op.  Elementwise ops run on whole rows in ``interp`` and map
    lane by lane in ``spmd_batch``, which also guards partial operands in
    dead lanes.  Reverse mode passes ops with no cotangent and trace ops
    through without a rule, and reverses trace ops structurally."""

    arity: int | None  # operand count, None when variadic
    rule: Callable[..., Type]  # the type rule
    elementwise: bool = False  # on tensors, one scalar op at each broadcast point
    partial: tuple[int, ...] = ()  # operands a dead lane must not reach
    no_cotangent: bool = False  # its result takes no cotangent
    trace: bool = False  # reads or writes a trace; reversed structurally
    faults: bool = False  # can raise on well-typed operands


OPS: dict[str, OpDef] = {
    "const": OpDef(0, _const, no_cotangent=True),
    "add": OpDef(2, _arith, elementwise=True),
    "sub": OpDef(2, _arith, elementwise=True),
    "mul": OpDef(2, _arith, elementwise=True),
    "div": OpDef(2, _arith, elementwise=True, partial=(1,), faults=True),
    "neg": OpDef(1, _unary, elementwise=True),
    "exp": OpDef(1, _unary, elementwise=True),
    "log": OpDef(1, _unary, elementwise=True, partial=(0,), faults=True),
    "tanh": OpDef(1, _unary, elementwise=True),
    "sigmoid": OpDef(1, _unary, elementwise=True),
    "relu": OpDef(1, _unary, elementwise=True),
    "pow_int": OpDef(1, _pow_int, elementwise=True),
    "itof": OpDef(1, _itof, no_cotangent=True, faults=True),  # an i64 beyond f64 range
    "lt": OpDef(2, _compare, elementwise=True, no_cotangent=True),
    "gt": OpDef(2, _compare, elementwise=True, no_cotangent=True),
    "eq": OpDef(2, _compare, elementwise=True, no_cotangent=True),
    "select": OpDef(3, _select, elementwise=True),
    "matmul": OpDef(2, _matmul),
    "bmm": OpDef(2, _bmm),
    "transpose": OpDef(1, _transpose),
    "reshape": OpDef(1, _reshape),
    "reduce_sum": OpDef(1, _reduce_sum),
    "bcast": OpDef(1, _bcast),
    "reduce_to": OpDef(1, _reduce_to),
    "stack": OpDef(None, _stack),
    "unstack": OpDef(1, _unstack),
    "fused_map": OpDef(None, _fused, elementwise=True, faults=True),
    "fused_pack": OpDef(None, _fused, faults=True),
    "call": OpDef(None, _call, faults=True),
    "tape_new": OpDef(0, lambda *_: TAPE, trace=True),
    "tape_push": OpDef(2, _tape_push, trace=True),
    "tape_top": OpDef(1, _tape_top, trace=True),
    "tape_rest": OpDef(1, _tape_read, trace=True),
    "tape_spread": OpDef(1, _tape_spread, trace=True),
    "tape_expect_empty": OpDef(1, _tape_read, trace=True, faults=True),
}


def result_type(
    op: str,
    operands: tuple[Type, ...],
    attrs: dict,
    module: Module | None = None,
) -> Type:
    """The result type of an op applied to operand types, or raise."""
    d = OPS.get(op)
    if d is None:
        _fail(f"unknown op '{op}'")
    if d.arity is not None and len(operands) != d.arity:
        _fail(f"{op} takes {d.arity} operand(s), got {len(operands)}")
    return d.rule(op, operands, attrs, module)
