"""Adjoint rules, written once against a two-call op protocol.

Each rule states what the forward pass must save and how to turn a
result cotangent into operand cotangents.  A rule body reaches ops only
through its backend ``b``:

    b.emit(op, operands, attrs=None)   apply an IR op, return its value
    b.type_of(value)                   the IR Type of a value

so every op a rule uses means what ``interp.KERNELS`` and
``ops.result_type`` say it means.  Two backends run the same bodies.
``NUMERIC`` evaluates at once: values are floats and tensors, ``emit``
runs the op's kernel and ``type_of`` is ``runtime_type``.  The
transform's pullback emits IR instead: values are value ids, ``emit``
appends an instruction named ``g`` and ``type_of`` reads the emitter's
types.  Gradient disagreements between the two paths therefore isolate
transform bugs from rule bugs.  Forward mode is the third user of
``NUMERIC``: it runs a rule with a unit cotangent to read off an op's
partials, so no derivative is written anywhere but here.

Saved-value selectors: "o0"/"o1" are operands, "res" is the result.
Pushes happen in selector order; pops must mirror them reversed.
"""

from __future__ import annotations

from math import prod
from types import SimpleNamespace

from .interp import KERNELS
from .ir import BOOL, F64, I64, Type, tensor_type
from .tensor import DenseTensor


class Rule:
    __slots__ = ("saves", "backward")

    def __init__(self, saves: tuple[str, ...], backward):
        self.saves = saves
        self.backward = backward


def _f64(b, x: float):
    return b.emit("const", (), {"ty": F64, "value": float(x)})


def reduce_like(b, x, ref_ty: Type):
    """Collapse a broadcast cotangent back to the operand's type.

    Sums over expanded leading axes and over axes the operand held at
    extent 1, or over everything for an f64 operand.
    """
    xty = b.type_of(x)
    if ref_ty.kind == "f64":
        if xty.is_tensor:
            return b.emit("reduce_sum", (x,), {"axis": "all"})
        return x
    if not xty.is_tensor:
        return b.emit("bcast", (x,), {"shape": ref_ty.shape})
    if xty.shape == ref_ty.shape:
        return x
    return b.emit("reduce_to", (x,), {"shape": ref_ty.shape})


def relu_mask(b, a):
    """1.0 where a > 0 and 0.0 elsewhere: an f64, or a mask like a."""
    zero = _f64(b, 0.0)
    m = b.emit("gt", (a, zero))
    if b.type_of(a).kind == "f64":
        return b.emit("select", (m, _f64(b, 1.0), zero))
    return m


# rule bodies: (backend, attrs, operand_types, saved, ybar) -> cotangents


def _add(b, attrs, ts, sv, ybar):
    return (reduce_like(b, ybar, ts[0]), reduce_like(b, ybar, ts[1]))


def _sub(b, attrs, ts, sv, ybar):
    return (reduce_like(b, ybar, ts[0]), reduce_like(b, b.emit("neg", (ybar,)), ts[1]))


def _mul(b, attrs, ts, sv, ybar):
    a, v = sv
    return (
        reduce_like(b, b.emit("mul", (ybar, v)), ts[0]),
        reduce_like(b, b.emit("mul", (ybar, a)), ts[1]),
    )


def _div(b, attrs, ts, sv, ybar):
    a, v = sv
    da = reduce_like(b, b.emit("div", (ybar, v)), ts[0])
    q = b.emit("div", (b.emit("mul", (ybar, a)), b.emit("mul", (v, v))))
    return (da, reduce_like(b, b.emit("neg", (q,)), ts[1]))


def _neg(b, attrs, ts, sv, ybar):
    return (b.emit("neg", (ybar,)),)


def _exp(b, attrs, ts, sv, ybar):
    (y,) = sv
    return (b.emit("mul", (ybar, y)),)


def _log(b, attrs, ts, sv, ybar):
    (a,) = sv
    return (b.emit("div", (ybar, a)),)


def _tanh(b, attrs, ts, sv, ybar):
    (y,) = sv
    d = b.emit("sub", (_f64(b, 1.0), b.emit("mul", (y, y))))
    return (b.emit("mul", (ybar, d)),)


def _sigmoid(b, attrs, ts, sv, ybar):
    (y,) = sv
    d = b.emit("mul", (y, b.emit("sub", (_f64(b, 1.0), y))))
    return (b.emit("mul", (ybar, d)),)


def _relu(b, attrs, ts, sv, ybar):
    (a,) = sv
    return (b.emit("mul", (ybar, relu_mask(b, a))),)


def _pow_int(b, attrs, ts, sv, ybar):
    (a,) = sv
    n = attrs["n"]
    if n == 0:
        return (b.emit("mul", (ybar, _f64(b, 0.0))),)
    d = b.emit("mul", (_f64(b, float(n)), b.emit("pow_int", (a,), {"n": n - 1})))
    return (b.emit("mul", (ybar, d)),)


def _select(b, attrs, ts, sv, ybar):
    (c,) = sv
    # a bool picks a whole value, so the unpicked arm's zero has its type;
    # a mask broadcasts an f64 zero
    ty = ts[1] if ts[0] == BOOL else F64
    value = (0.0,) * prod(ty.shape) if ty.is_tensor else 0.0
    zero = b.emit("const", (), {"ty": ty, "value": value})
    da = reduce_like(b, b.emit("select", (c, ybar, zero)), ts[1])
    dv = reduce_like(b, b.emit("select", (c, zero, ybar)), ts[2])
    return (None, da, dv)


def _product(op: str):
    """The rule of matmul or bmm: each operand's cotangent is a product
    of ybar with the other operand transposed."""

    def backward(b, attrs, ts, sv, ybar):
        a, v = sv
        return (b.emit(op, (ybar, b.emit("transpose", (v,)))),
                b.emit(op, (b.emit("transpose", (a,)), ybar)))
    return backward


def _transpose(b, attrs, ts, sv, ybar):
    return (b.emit("transpose", (ybar,)),)


def _reshape(b, attrs, ts, sv, ybar):
    return (b.emit("reshape", (ybar,), {"shape": ts[0].shape}),)


def _reduce_sum(b, attrs, ts, sv, ybar):
    src = ts[0].shape
    axis = attrs.get("axis", "all")
    if axis == "tail":
        keep = (src[0],) + (1,) * (len(src) - 1)
    elif axis != "all" and len(src) > 1:
        keep = src[:axis] + (1,) + src[axis + 1:]
    else:
        return (b.emit("bcast", (ybar,), {"shape": src}),)
    return (b.emit("bcast", (b.emit("reshape", (ybar,), {"shape": keep}),), {"shape": src}),)


def _bcast(b, attrs, ts, sv, ybar):
    return (reduce_like(b, ybar, ts[0]),)


def _reduce_to(b, attrs, ts, sv, ybar):
    return (b.emit("bcast", (ybar,), {"shape": ts[0].shape}),)


def _stack(b, attrs, ts, sv, ybar):
    axis = attrs.get("axis", 0)
    return tuple(b.emit("unstack", (ybar,), {"index": i, "axis": axis}) for i in range(len(ts)))


def _unstack(b, attrs, ts, sv, ybar):
    src = ts[0].shape
    axis = attrs.get("axis", 0)
    index = attrs["index"]
    hot = [0.0] * prod(src)
    stride = prod(src[axis + 1:])
    span = src[axis] * stride
    for o in range(prod(src[:axis])):
        base = o * span + index * stride
        for i in range(stride):
            hot[base + i] = 1.0
    onehot = b.emit("const", (), {"ty": tensor_type(*src), "value": tuple(hot)})
    if len(src) == 1:
        return (b.emit("mul", (onehot, ybar)),)
    keep = src[:axis] + (1,) + src[axis + 1:]
    return (b.emit("mul", (onehot, b.emit("reshape", (ybar,), {"shape": keep}))),)


def _fused_map(b, attrs, ts, sv, ybar):
    # forward is rewritten to fused_pack; saved is the pack tensor whose
    # row 0 is the primal and row 1+i the partial for operand i
    (pack,) = sv
    cots = []
    for i, t in enumerate(ts):
        part = b.emit("unstack", (pack,), {"index": 1 + i, "axis": 0})
        cots.append(reduce_like(b, b.emit("mul", (ybar, part)), t))
    return tuple(cots)


RULES: dict[str, Rule] = {
    "add": Rule((), _add),
    "sub": Rule((), _sub),
    "mul": Rule(("o0", "o1"), _mul),
    "div": Rule(("o0", "o1"), _div),
    "neg": Rule((), _neg),
    "exp": Rule(("res",), _exp),
    "log": Rule(("o0",), _log),
    "tanh": Rule(("res",), _tanh),
    "sigmoid": Rule(("res",), _sigmoid),
    "relu": Rule(("o0",), _relu),
    "pow_int": Rule(("o0",), _pow_int),
    "select": Rule(("o0",), _select),
    "matmul": Rule(("o0", "o1"), _product("matmul")),
    "bmm": Rule(("o0", "o1"), _product("bmm")),
    "transpose": Rule((), _transpose),
    "reshape": Rule((), _reshape),
    "reduce_sum": Rule((), _reduce_sum),
    "bcast": Rule((), _bcast),
    "reduce_to": Rule((), _reduce_to),
    "stack": Rule((), _stack),
    "unstack": Rule((), _unstack),
    "fused_map": Rule(("pack",), _fused_map),
}

# every other op is a leaf for reverse mode: constants, comparisons,
# itof (integer side has no cotangent), and the trace carriers, whose
# reversal is structural rather than rule-driven


def saved_values(rule: Rule, operands: tuple, result):
    """What rule saves, picked from an op's operands and result: values
    to push (or record), or their types to pop."""
    out = []
    for sel in rule.saves:
        if sel == "res":
            out.append(result)
        elif sel == "o0":
            out.append(operands[0])
        elif sel == "o1":
            out.append(operands[1])
        else:
            raise ValueError(f"unknown save selector {sel!r}")
    return tuple(out)


# ------------------------------------------------- numeric backend


def runtime_type(v) -> Type:
    """The IR Type of a runtime value."""
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return I64
    if isinstance(v, DenseTensor):
        return tensor_type(*v.shape)
    return F64


def _run_kernel(op: str, operands, attrs: dict | None = None):
    return KERNELS[op](None, attrs, operands, range(len(operands)))


# evaluates rule bodies directly on runtime values
NUMERIC = SimpleNamespace(emit=_run_kernel, type_of=runtime_type)
