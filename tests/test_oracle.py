"""The two reference gradient routes: replay tape and central
differences.  These are what the structural adjoint is judged against,
so they get their own direct checks here."""

import math

import pytest

from ssagrad import (DenseTensor, EvalError, finite_diff, parse_ir,
                     tape_backprop, trace_eval, trace_grad)

from conftest import rel


def test_trace_eval_matches_interp(analytic):
    out, trace = trace_eval(analytic, "cube", (2.0,))
    assert out == (8.0,)
    assert trace.nodes  # three multiplies at minimum


def test_tape_backprop_product(analytic):
    _, trace = trace_eval(analytic, "prod", (2.0, 3.0))
    g = tape_backprop(trace, (1.0,))
    assert g == {0: 3.0, 1: 2.0}


def test_tape_backprop_seed_scaling(analytic):
    _, trace = trace_eval(analytic, "prod", (2.0, 3.0))
    g = tape_backprop(trace, (10.0,))
    assert g == {0: 30.0, 1: 20.0}


def test_tape_backprop_seed_arity(analytic):
    _, trace = trace_eval(analytic, "prod", (2.0, 3.0))
    with pytest.raises(ValueError):
        tape_backprop(trace, (1.0, 1.0))


def test_tape_is_replayable(analytic):
    # two sweeps over one trace must agree: the sweep does not consume it
    _, trace = trace_eval(analytic, "cube", (1.7,))
    a = tape_backprop(trace, (1.0,))
    b = tape_backprop(trace, (1.0,))
    assert a == b


def test_trace_grad_loop(analytic):
    for x in (0.5, -1.2, 2.0):
        g = trace_grad(analytic, "cube", (x,), (1.0,))
        assert rel(g[0], 3 * x * x) < 1e-12


def test_trace_grad_skips_int_param(analytic):
    g = trace_grad(analytic, "powloop", (2.0, 4), (1.0,))
    assert list(g) == [0]
    assert rel(g[0], 4 * 2.0 ** 3) < 1e-12


def test_trace_records_only_differentiable_results(analytic):
    # the i64 counter's adds are bookkeeping, as in the transform
    _, trace = trace_eval(analytic, "powloop", (1.5, 8))
    assert [n.op for n in trace.nodes] == ["mul"] * 8


def test_compare_margin_records_float_compares(analytic):
    _, trace = trace_eval(analytic, "absval", (0.001,))
    assert trace.min_compare_margin() == pytest.approx(0.001)


def test_compare_margin_ignores_loop_counters(analytic):
    # i64 counter compares run every iteration; only float compares
    # can flip under an FD probe, so only they count
    _, trace = trace_eval(analytic, "cube", (5.0,))
    assert trace.min_compare_margin() == math.inf


def test_finite_diff_simple(analytic):
    g = finite_diff(analytic, "prod", (2.0, 3.0), (1.0,))
    assert rel(g[0], 3.0) < 1e-9
    assert rel(g[1], 2.0) < 1e-9


def test_finite_diff_tensor(analytic):
    w = DenseTensor.from_flat((2, 3), [0.3, -0.5, 0.8, 1.1, 0.2, -0.4])
    v = DenseTensor.from_flat((3, 1), [0.5, -1.2, 0.9])
    gf = finite_diff(analytic, "net", (w, v), (1.0,))
    gt = trace_grad(analytic, "net", (w, v), (1.0,))
    for vid in gt:
        for a, b in zip(gf[vid].flat(), gt[vid].flat()):
            assert rel(a, b) < 1e-7


def test_finite_diff_step_scales_with_magnitude():
    m = parse_ir("""
func @sqf(%x: f64) -> f64 {
^entry:
  %y = mul %x, %x
  ret %y
}
""")
    # at x = 1e6 a fixed h = 1e-6 would lose every digit; the scaled
    # step keeps the relative error tiny
    g = finite_diff(m, "sqf", (1.0e6,), (1.0,))
    assert rel(g[0], 2.0e6) < 1e-7


def test_finite_diff_domain_exit_raises():
    m = parse_ir("""
func @edge(%x: f64) -> f64 {
^entry:
  %l = log %x
  ret %l
}
""")
    with pytest.raises(EvalError):
        finite_diff(m, "edge", (5e-7,), (1.0,))


def test_finite_diff_skips_int_param(analytic):
    g = finite_diff(analytic, "powloop", (2.0, 3), (1.0,))
    assert list(g) == [0]
    assert rel(g[0], 12.0) < 1e-9
