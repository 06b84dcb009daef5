"""The op table: every table keyed by op name covers ``ops.OPS`` exactly,
and every op not marked ``faults`` returns on well-typed operands."""

import itertools
import math

import numpy as np
import pytest

from ssagrad import ADError, DenseTensor, augment, parse_ir
from ssagrad.interp import EMPTY_TAPE, KERNELS, Tape
from ssagrad.ir import BOOL, F64, I64, TAPE, tapes_type, tensor_type
from ssagrad.lower import TEMPLATES
from ssagrad.ops import OPS, OpTypeError, result_type
from ssagrad.rules import RULES
from ssagrad.spmd_batch import _BATCH_ERRORS, _CASES

# ops with neither an adjoint rule nor a leaf declaration: calls are
# inlined before differentiation, and augment emits fused_pack for a
# fused_map, whose rule reads the pack; a written fused_pack is refused
NO_ADJOINT = {"call", "fused_pack"}


def test_every_op_has_a_kernel():
    assert set(KERNELS) == set(OPS)


def test_every_op_lowers_by_template_or_kernel():
    assert set(TEMPLATES) <= set(OPS)
    assert set(OPS) <= set(TEMPLATES) | set(KERNELS)


def test_every_op_has_an_adjoint_or_is_a_leaf():
    leaves = {op for op, d in OPS.items() if d.no_cotangent or d.trace}
    assert set(RULES) <= set(OPS)
    assert not set(RULES) & leaves
    assert set(OPS) - set(RULES) - leaves == NO_ADJOINT


def test_written_fused_pack_has_no_derivative_rule():
    m = parse_ir("""
func @sq(%a: f64) -> f64 {
^entry:
  %y = mul %a, %a
  ret %y
}

func @f(%x: tensor<2xf64>) -> tensor<2x2xf64> {
^entry:
  %p = fused_pack %x {fn = @sq}
  ret %p
}
""")
    with pytest.raises(ADError, match="op 'fused_pack' .* has no derivative rule"):
        augment(m, "f")


def test_every_op_batches_or_says_why_not():
    assert not set(_CASES) & set(_BATCH_ERRORS)
    assert set(_CASES) | set(_BATCH_ERRORS) == set(OPS)
    assert all(op in _CASES for op, d in OPS.items() if d.elementwise)


def test_properties_are_consistent():
    for op, d in OPS.items():
        assert all(0 <= i < (d.arity or 0) for i in d.partial), op
        assert d.elementwise or not d.partial, op
        assert not (d.trace and (d.elementwise or d.no_cotangent)), op


@pytest.mark.parametrize("op", [op for op, d in OPS.items() if d.arity is not None])
def test_fixed_arity_is_checked_first(op):
    n = OPS[op].arity
    with pytest.raises(OpTypeError, match=rf"^{op} takes {n} operand\(s\), got {n + 1}$"):
        result_type(op, (F64,) * (n + 1), {"ty": F64})


# operand values built from the float specials, for each type tried below;
# a tensor holds each special everywhere, or all of them at once
SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)
LANES = len(SPECIALS)


def _tensors(*shape):
    n = math.prod(shape)
    fills = [[s] * n for s in SPECIALS] + [[SPECIALS[i % LANES] for i in range(n)]]
    return [DenseTensor.from_flat(shape, f) for f in fills]


def _traces(lanes):
    t = KERNELS["tape_spread"](None, {"lanes": lanes}, [Tape(math.nan, EMPTY_TAPE)], range(1))
    rows = DenseTensor.from_flat((lanes,), SPECIALS)
    return [t, KERNELS["tape_push"](None, {"per_lane": True}, [t, rows], range(2))]


VALUES = {
    F64: list(SPECIALS),
    I64: [0, -3, 2 ** 80],
    BOOL: [False, True],
    TAPE: [EMPTY_TAPE, Tape(math.nan, EMPTY_TAPE), Tape(-0.0, Tape(math.inf, EMPTY_TAPE))],
    tapes_type(LANES): _traces(LANES),
    **{tensor_type(*s): _tensors(*s)
       for s in ((LANES,), (2, LANES), (LANES, 2), (1, LANES), (2, 1, LANES), (2, LANES, 1))},
}

# attribute sets tried per op; an op not named here takes none
ATTRS = {
    "const": [{"ty": F64, "value": s} for s in SPECIALS]
             + [{"ty": tensor_type(LANES), "value": SPECIALS}, {"ty": I64, "value": 0},
                {"ty": BOOL, "value": True}],
    "pow_int": [{"n": 0}, {"n": 1}, {"n": 3}],
    "reshape": [{"shape": (2 * LANES,)}, {"shape": (LANES, 2)}, {"shape": (LANES, 1)}],
    "reduce_sum": [{"axis": "all"}, {"axis": "tail"}, {"axis": 0}, {"axis": 1}],
    "bcast": [{"shape": (2, LANES)}],
    "reduce_to": [{"shape": (1, LANES)}, {"shape": (LANES,)}, {"shape": (2, 1)}],
    "stack": [{"axis": 0}, {"axis": 1}],
    "unstack": [{"index": 1, "axis": 0}, {"index": 0, "axis": 1}],
    "tape_push": [{}, {"per_lane": True}],
    "tape_top": [{"ty": F64}, {"ty": tensor_type(LANES)},
                 {"ty": tensor_type(LANES), "per_lane": True},
                 {"ty": tensor_type(LANES, 2), "per_lane": True}],
    "tape_spread": [{"lanes": LANES}],
}


@pytest.mark.parametrize("op", [op for op, d in OPS.items() if not d.faults])
def test_ops_not_marked_faulting_never_raise(op):
    # dead code elimination removes any op not marked faults, so each
    # must return on every well-typed operand; here, every operand type
    # above that result_type accepts, on every value built from 0.0,
    # -0.0, +-inf and nan, at the entry points' numpy error state
    d, runs = OPS[op], 0
    for n in ([d.arity] if d.arity is not None else [1, 2, 3]):
        for tys, attrs in itertools.product(itertools.product(VALUES, repeat=n),
                                            ATTRS.get(op, [{}])):
            try:
                result_type(op, tys, attrs)
            except OpTypeError:
                continue
            for vals in itertools.product(*(VALUES[t] for t in tys)):
                with np.errstate(all="ignore"):
                    KERNELS[op](None, attrs, list(vals), range(n))
                runs += 1
    assert runs > 0, op


@pytest.mark.parametrize("op, attrs, vals", [
    ("div", {}, [1.0, -0.0]),
    ("log", {}, [0.0]),
    ("itof", {}, [10 ** 400]),
    ("tape_expect_empty", {}, [Tape(0.0, EMPTY_TAPE)]),
])
def test_ops_marked_faulting_can_raise(op, attrs, vals):
    # call, fused_map and fused_pack fault when the function they run does
    assert OPS[op].faults
    with pytest.raises((ArithmeticError, ValueError)):
        KERNELS[op](None, attrs, vals, range(len(vals)))
    assert {o for o, d in OPS.items() if d.faults} == {
        "div", "log", "itof", "call", "fused_map", "fused_pack", "tape_expect_empty"}
