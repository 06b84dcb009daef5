"""The two reference gradient routes: replay tape and central
differences.  These are what the structural adjoint is judged against,
so they get their own direct checks here, as does the margin walker
that keeps the inputs they are judged at clear of branch flips."""

import math

import pytest

from ssagrad import (DenseTensor, EvalError, eval_function, finite_diff, parse_ir,
                     stable_inputs, tape_backprop, trace_eval, trace_grad)
from ssagrad.progen import compare_margin

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
    assert compare_margin(analytic, "absval", (0.001,)) == pytest.approx(0.001)


def test_compare_margin_ignores_loop_counters(analytic):
    # i64 counter compares run every iteration; only float compares
    # can flip under an FD probe, so only they count
    assert compare_margin(analytic, "cube", (5.0,)) == math.inf


MARGIN_SRC = """
func @two(%a: f64, %b: f64, %c: f64) -> f64 {
^entry:
  %p = lt %a, %c
  %q = gt %b, %c
  ret %c
}

func @body(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  %r = select %c, %x, %z
  ret %r
}

func @mapped(%x: f64) -> f64 {
^entry:
  %y = fused_map %x {fn = @body}
  ret %y
}

func @called(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @body}
  ret %y
}

func @tie_then_fault(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = lt %x, %z
  %l = log %x
  ret %l
}
"""


@pytest.mark.parametrize("args, want", [
    ((0.0, 0.5, 1.0), 0.5),
    ((0.0, 0.9995, 1.0), 1.0 - 0.9995),  # the second compare ties
    ((math.nan, 0.5, 1.0), math.nan),  # a NaN first margin rejects
    ((0.0, math.nan, 1.0), 1.0),  # a NaN after a clean compare is ignored
    ((math.inf, math.nan, 1.0), math.inf),  # as min() keeps an inf before a NaN
], ids=["clean", "tie_second", "nan_first", "nan_second", "inf_then_nan"])
def test_compare_margin_takes_min_of_margins(args, want):
    got = compare_margin(parse_ir(MARGIN_SRC), "two", args)
    assert got == want or math.isnan(got) and math.isnan(want)


def test_compare_margin_counts_callees_not_map_bodies():
    m = parse_ir(MARGIN_SRC)
    assert compare_margin(m, "called", (0.5,)) == 0.5
    assert compare_margin(m, "mapped", (0.5,)) == math.inf


class _Draws:
    """An rng whose uniform() hands out fixed draws and counts them."""

    def __init__(self, draws):
        self.draws, self.taken = list(draws), 0

    def uniform(self, a, b):
        self.taken += 1
        return self.draws[self.taken - 1]


def test_compare_margin_stops_at_a_tie_before_a_fault():
    m = parse_ir(MARGIN_SRC)
    # the run stops at the near-tie, so the log that follows never faults
    with pytest.raises(EvalError):
        eval_function(m, "tie_then_fault", (-0.0005,))
    assert compare_margin(m, "tie_then_fault", (-0.0005,)) == 0.0005
    with pytest.raises(EvalError, match="log of non-positive value"):
        compare_margin(m, "tie_then_fault", (-1.0,))
    # a tie, then a fault, then a clean sample
    rng = _Draws([-0.0005, -1.0, 2.0])
    assert stable_inputs(m, "tie_then_fault", rng) == (2.0,)
    assert rng.taken == 3


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
