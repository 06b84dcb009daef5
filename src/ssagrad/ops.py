"""Operation signatures: static typing rules for every IR op.

``result_type`` is the single authority on op typing: ``structurize``
(and so ``verify``) types every parsed instruction with it, and
``SEmitter.emit`` types every instruction a transform emits.  It raises
OpTypeError with a human message when operand types, attributes or
cross-function references do not line up.

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

from .ir import BOOL, F64, I64, TAPE, FnRef, Function, Module, Type, tapes_type, tensor_type
from .tensor import broadcast_shapes, can_expand


class OpTypeError(TypeError):
    pass


def _fail(msg: str):
    raise OpTypeError(msg)


_NUMERIC_BINOPS = ("add", "sub", "mul", "div")
_UNARY_MATH = ("exp", "log", "tanh", "sigmoid", "relu")
_COMPARES = ("lt", "gt", "eq")

def _expect_arity(op: str, operands: tuple[Type, ...], n: int):
    if len(operands) != n:
        _fail(f"{op} takes {n} operand(s), got {len(operands)}")


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


def _check_scalar_subfn(op: str, fn: Function):
    if any(t.kind != "f64" for _, t in fn.params) or fn.results != (F64,):
        _fail(f"{op}: @{fn.name} must map f64 parameters to one f64 result")


def result_type(
    op: str,
    operands: tuple[Type, ...],
    attrs: dict,
    module: Module | None = None,
) -> Type:
    """The result type of an op applied to operand types, or raise."""

    if op == "const":
        ty = attrs.get("ty")
        if not isinstance(ty, Type) or ty.kind not in ("f64", "i64", "bool", "tensor"):
            _fail("const needs ty in {f64, i64, bool, tensor<...>}")
        _expect_arity(op, operands, 0)
        value = attrs.get("value")
        if ty.is_tensor:
            n = prod(ty.shape)
            if not isinstance(value, tuple) or len(value) != n:
                _fail(f"const {ty} needs {n} values")
        return ty

    if op in _NUMERIC_BINOPS:
        _expect_arity(op, operands, 2)
        a, b = operands
        if a.kind == "i64" and b.kind == "i64":
            if op == "div":
                _fail("div is not defined on i64")
            return I64
        return _broadcast_result(op, a, b)

    if op == "neg":
        _expect_arity(op, operands, 1)
        (a,) = operands
        if a.kind in ("f64", "i64", "tensor"):
            return a
        _fail(f"neg on {a}")

    if op in _UNARY_MATH:
        _expect_arity(op, operands, 1)
        (a,) = operands
        if a.kind in ("f64", "tensor"):
            return a
        _fail(f"{op} on {a}")

    if op == "pow_int":
        _expect_arity(op, operands, 1)
        n = attrs.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            _fail("pow_int needs attribute n = non-negative integer")
        (a,) = operands
        if a.kind in ("f64", "tensor"):
            return a
        _fail(f"pow_int on {a}")

    if op == "itof":
        _expect_arity(op, operands, 1)
        if operands[0].kind != "i64":
            _fail(f"itof on {operands[0]}")
        return F64

    if op in _COMPARES:
        _expect_arity(op, operands, 2)
        a, b = operands
        if a.kind == "i64" and b.kind == "i64":
            return BOOL
        if a.kind == "f64" and b.kind == "f64":
            return BOOL
        return _broadcast_result(op, a, b)

    if op == "select":
        _expect_arity(op, operands, 3)
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

    if op == "matmul":
        _expect_arity(op, operands, 2)
        a, b = operands
        if not (a.is_tensor and b.is_tensor) or len(a.shape) != 2 or len(b.shape) != 2:
            _fail(f"matmul on {a}, {b}")
        if a.shape[1] != b.shape[0]:
            _fail(f"matmul inner extents differ: {a.shape} x {b.shape}")
        return tensor_type(a.shape[0], b.shape[1])

    if op == "bmm":
        _expect_arity(op, operands, 2)
        a, b = operands
        ok = (
            a.is_tensor and b.is_tensor
            and len(a.shape) == 3 and len(b.shape) == 3
            and a.shape[0] == b.shape[0] and a.shape[2] == b.shape[1]
        )
        if not ok:
            _fail(f"bmm on {a}, {b}")
        return tensor_type(a.shape[0], a.shape[1], b.shape[2])

    if op == "transpose":
        _expect_arity(op, operands, 1)
        (a,) = operands
        if not a.is_tensor or len(a.shape) < 2:
            _fail(f"transpose on {a}")
        s = list(a.shape)
        s[-1], s[-2] = s[-2], s[-1]
        return tensor_type(*s)

    if op == "reshape":
        _expect_arity(op, operands, 1)
        shape = _shape_attr(op, attrs, "shape")
        (a,) = operands
        if not a.is_tensor:
            _fail(f"reshape on {a}")
        if prod(a.shape) != prod(shape):
            _fail(f"reshape {a.shape} to {shape} changes element count")
        return tensor_type(*shape)

    if op == "reduce_sum":
        _expect_arity(op, operands, 1)
        (a,) = operands
        if not a.is_tensor:
            _fail(f"reduce_sum on {a}")
        axis = attrs.get("axis")
        if axis == "all":
            return F64
        if axis == "tail":
            return tensor_type(a.shape[0])
        if isinstance(axis, int) and not isinstance(axis, bool) and 0 <= axis < len(a.shape):
            if len(a.shape) == 1:
                return F64
            s = list(a.shape)
            del s[axis]
            return tensor_type(*s)
        _fail(f"reduce_sum axis must be all, tail or an axis of {a}")

    if op == "bcast":
        _expect_arity(op, operands, 1)
        shape = _shape_attr(op, attrs, "shape")
        (a,) = operands
        if a.kind == "f64":
            return tensor_type(*shape)
        if a.is_tensor and can_expand(a.shape, shape):
            return tensor_type(*shape)
        _fail(f"bcast of {a} to {shape}")

    if op == "reduce_to":
        _expect_arity(op, operands, 1)
        shape = _shape_attr(op, attrs, "shape")
        (a,) = operands
        if a.is_tensor and can_expand(shape, a.shape):
            return tensor_type(*shape)
        _fail(f"reduce_to of {a} to {shape}")

    if op == "stack":
        if not operands:
            _fail("stack needs at least one operand")
        first = operands[0]
        if not first.is_tensor or any(t != first for t in operands):
            _fail(f"stack of {[str(t) for t in operands]}")
        axis = attrs.get("axis", 0)
        if not isinstance(axis, int) or not 0 <= axis <= len(first.shape):
            _fail(f"stack axis {axis!r} out of range for {first}")
        s = list(first.shape)
        s.insert(axis, len(operands))
        return tensor_type(*s)

    if op == "unstack":
        _expect_arity(op, operands, 1)
        (a,) = operands
        if not a.is_tensor:
            _fail(f"unstack on {a}")
        axis = attrs.get("axis", 0)
        index = attrs.get("index")
        if not isinstance(axis, int) or not 0 <= axis < len(a.shape):
            _fail(f"unstack axis {axis!r} out of range for {a}")
        if not isinstance(index, int) or not 0 <= index < a.shape[axis]:
            _fail(f"unstack index {index!r} out of range for {a} axis {axis}")
        if len(a.shape) == 1:
            return F64
        s = list(a.shape)
        del s[axis]
        return tensor_type(*s)

    if op in ("fused_map", "fused_pack"):
        fn = _fn_attr(op, attrs, module)
        _check_scalar_subfn(op, fn)
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

    if op == "call":
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

    if op == "tape_new":
        _expect_arity(op, operands, 0)
        return TAPE

    if op == "tape_push":
        _expect_arity(op, operands, 2)
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

    if op == "tape_top":
        _expect_arity(op, operands, 1)
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

    if op == "tape_rest":
        _expect_arity(op, operands, 1)
        (t,) = operands
        if t.kind in ("tape", "tapes"):
            return t
        _fail(f"tape_rest on {t}")

    if op == "tape_spread":
        _expect_arity(op, operands, 1)
        lanes = attrs.get("lanes")
        if not isinstance(lanes, int) or lanes < 1:
            _fail("tape_spread needs attribute lanes = positive integer")
        if operands[0].kind != "tape":
            _fail(f"tape_spread on {operands[0]}")
        return tapes_type(lanes)

    if op == "tape_expect_empty":
        _expect_arity(op, operands, 1)
        if operands[0].kind not in ("tape", "tapes"):
            _fail(f"tape_expect_empty on {operands[0]}")
        return BOOL

    _fail(f"unknown op '{op}'")
    raise AssertionError("unreachable")
