"""Adjoint rules, written once against an op-builder protocol.

Each rule states what the forward pass must save and how to turn a
result cotangent into operand cotangents.  The same rule bodies drive
two backends: the tracing oracle's numeric builder (values are floats
and tensors, evaluated immediately) and the transform's symbolic
builder (values are IR value ids, operations are emitted).  Gradient
disagreements between the two paths therefore isolate transform bugs
from rule bugs.  Forward mode is the third user of the numeric
builder: it runs a rule with a unit cotangent to read off an op's
partials, so no derivative is written anywhere but here.

Builder protocol, duck-typed:
    add sub mul div neg pow_int select transpose matmul bmm
    const_f64 const_tensor reshape bcast take gt_zero_mask reduce_like

``reduce_like(x, ref_ty)`` collapses a broadcast cotangent back to the
operand's type: summing over expanded leading axes and over axes the
operand held at extent 1, or over everything for an f64 operand.

Saved-value selectors: "o0"/"o1" are operands, "res" is the result.
Pushes happen in selector order; pops must mirror them reversed.
"""

from __future__ import annotations

from . import tensor as T
from .ir import Type
from .tensor import DenseTensor


class Rule:
    __slots__ = ("saves", "backward")

    def __init__(self, saves: tuple[str, ...], backward):
        self.saves = saves
        self.backward = backward


# rule bodies: (builder, attrs, operand_types, saved, ybar) -> cotangents


def _add(b, attrs, ts, sv, ybar):
    return (b.reduce_like(ybar, ts[0]), b.reduce_like(ybar, ts[1]))


def _sub(b, attrs, ts, sv, ybar):
    return (b.reduce_like(ybar, ts[0]), b.reduce_like(b.neg(ybar), ts[1]))


def _mul(b, attrs, ts, sv, ybar):
    a, v = sv
    return (
        b.reduce_like(b.mul(ybar, v), ts[0]),
        b.reduce_like(b.mul(ybar, a), ts[1]),
    )


def _div(b, attrs, ts, sv, ybar):
    a, v = sv
    da = b.reduce_like(b.div(ybar, v), ts[0])
    dv = b.reduce_like(b.neg(b.div(b.mul(ybar, a), b.mul(v, v))), ts[1])
    return (da, dv)


def _neg(b, attrs, ts, sv, ybar):
    return (b.neg(ybar),)


def _exp(b, attrs, ts, sv, ybar):
    (y,) = sv
    return (b.mul(ybar, y),)


def _log(b, attrs, ts, sv, ybar):
    (a,) = sv
    return (b.div(ybar, a),)


def _tanh(b, attrs, ts, sv, ybar):
    (y,) = sv
    return (b.mul(ybar, b.sub(b.const_f64(1.0), b.mul(y, y))),)


def _sigmoid(b, attrs, ts, sv, ybar):
    (y,) = sv
    return (b.mul(ybar, b.mul(y, b.sub(b.const_f64(1.0), y))),)


def _relu(b, attrs, ts, sv, ybar):
    (a,) = sv
    return (b.mul(ybar, b.gt_zero_mask(a)),)


def _pow_int(b, attrs, ts, sv, ybar):
    (a,) = sv
    n = attrs["n"]
    if n == 0:
        return (b.mul(ybar, b.const_f64(0.0)),)
    return (b.mul(ybar, b.mul(b.const_f64(float(n)), b.pow_int(a, n - 1))),)


def _select(b, attrs, ts, sv, ybar):
    (c,) = sv
    zero = b.const_f64(0.0)
    da = b.reduce_like(b.select(c, ybar, zero), ts[1])
    dv = b.reduce_like(b.select(c, zero, ybar), ts[2])
    return (None, da, dv)


def _matmul(b, attrs, ts, sv, ybar):
    a, v = sv
    return (b.matmul(ybar, b.transpose(v)), b.matmul(b.transpose(a), ybar))


def _bmm(b, attrs, ts, sv, ybar):
    a, v = sv
    return (b.bmm(ybar, b.transpose(v)), b.bmm(b.transpose(a), ybar))


def _transpose(b, attrs, ts, sv, ybar):
    return (b.transpose(ybar),)


def _reshape(b, attrs, ts, sv, ybar):
    return (b.reshape(ybar, ts[0].shape),)


def _reduce_sum(b, attrs, ts, sv, ybar):
    src = ts[0].shape
    axis = attrs.get("axis", "all")
    if axis == "all":
        return (b.bcast(ybar, src),)
    if axis == "tail":
        lead = (src[0],) + (1,) * (len(src) - 1)
        return (b.bcast(b.reshape(ybar, lead), src),)
    if len(src) == 1:
        return (b.bcast(ybar, src),)
    keep = src[:axis] + (1,) + src[axis + 1:]
    return (b.bcast(b.reshape(ybar, keep), src),)


def _bcast(b, attrs, ts, sv, ybar):
    return (b.reduce_like(ybar, ts[0]),)


def _reduce_to(b, attrs, ts, sv, ybar):
    return (b.bcast(ybar, ts[0].shape),)


def _stack(b, attrs, ts, sv, ybar):
    axis = attrs.get("axis", 0)
    return tuple(b.take(ybar, i, axis) for i in range(len(ts)))


def _unstack(b, attrs, ts, sv, ybar):
    src = ts[0].shape
    axis = attrs.get("axis", 0)
    index = attrs["index"]
    hot = [0.0] * _count(src)
    stride = _count(src[axis + 1:])
    outer = _count(src[:axis])
    span = src[axis] * stride
    for o in range(outer):
        base = o * span + index * stride
        for i in range(stride):
            hot[base + i] = 1.0
    onehot = b.const_tensor(src, tuple(hot))
    if len(src) == 1:
        return (b.mul(onehot, ybar),)
    keep = src[:axis] + (1,) + src[axis + 1:]
    return (b.mul(onehot, b.reshape(ybar, keep)),)


def _fused_map(b, attrs, ts, sv, ybar):
    # forward is rewritten to fused_pack; saved is the pack tensor whose
    # row 0 is the primal and row 1+i the partial for operand i
    (pack,) = sv
    cots = []
    for i, t in enumerate(ts):
        part = b.take(pack, 1 + i, 0)
        cots.append(b.reduce_like(b.mul(ybar, part), t))
    return tuple(cots)


def _count(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


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
    "matmul": Rule(("o0", "o1"), _matmul),
    "bmm": Rule(("o0", "o1"), _bmm),
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


class NumericBuilder:
    """Evaluates rule bodies directly on runtime values."""

    def add(self, a, b):
        return T.add(a, b)

    def sub(self, a, b):
        return T.sub(a, b)

    def mul(self, a, b):
        return T.mul(a, b)

    def div(self, a, b):
        return T.div(a, b)

    def neg(self, a):
        return T.neg(a)

    def const_f64(self, x: float) -> float:
        return float(x)

    def const_tensor(self, shape, values) -> DenseTensor:
        return DenseTensor.from_flat(shape, values)

    def pow_int(self, a, n: int):
        if isinstance(a, DenseTensor):
            return T.pow_int(a, n)
        return T.scalar_pow_int(a, n)

    def gt_zero_mask(self, a):
        if isinstance(a, DenseTensor):
            return T.compare("gt", a, 0.0)
        return 1.0 if a > 0.0 else 0.0

    def select(self, c, x, y):
        if isinstance(c, bool):
            return x if c else y
        return T.select_mask(c, x, y)

    def matmul(self, a, b):
        return T.matmul(a, b)

    def bmm(self, a, b):
        return T.bmm(a, b)

    def transpose(self, a):
        return T.transpose(a)

    def reshape(self, a, shape):
        return T.reshape(a, tuple(shape))

    def bcast(self, a, shape):
        shape = tuple(shape)
        if not isinstance(a, DenseTensor):
            return DenseTensor.full(shape, float(a))
        return T.bcast_to(a, shape)

    def take(self, a, index, axis):
        return T.take(a, index, axis)

    def reduce_like(self, x, ref_ty: Type):
        if ref_ty.kind == "f64":
            if isinstance(x, DenseTensor):
                return T.reduce_sum(x, "all")
            return x
        if not isinstance(x, DenseTensor):
            return DenseTensor.full(ref_ty.shape, float(x))
        if x.shape == ref_ty.shape:
            return x
        return T.reduce_to(x, ref_ty.shape)


NUMERIC = NumericBuilder()
