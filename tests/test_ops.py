"""The op table: every table keyed by op name covers ``ops.OPS`` exactly."""

import pytest

from ssagrad import ADError, augment, parse_ir
from ssagrad.interp import KERNELS
from ssagrad.ir import F64
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
