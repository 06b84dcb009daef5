"""The benchmark's output checks are not vacuous: each one counts a
deliberately wrong answer as failed."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ssagrad import DenseTensor, eval_function, grad, parse_ir, trace_grad  # noqa: E402

import checks  # noqa: E402
from spans import NullTracer, Speed  # noqa: E402
from workloads import FUSED_PATH, CliFused, Measured, fused_closed_form  # noqa: E402

SRC = """
func @prod(%x: f64, %y: f64) -> f64 {
^entry:
  %p = mul %x, %y
  ret %p
}

func @net(%w: tensor<2x2xf64>, %x: f64) -> f64 {
^entry:
  %s = tanh %w
  %t = reduce_sum %s {axis = all}
  %r = mul %t, %x
  ret %r
}
"""


def _gradients():
    m = parse_ir(SRC)
    w = DenseTensor.from_flat((2, 2), [0.1, -0.7, 1.3, 0.4])
    cases = [("prod", (2.0, -3.5)), ("net", (w, 0.8))]
    results, refs = [], {}
    for key, (name, args) in enumerate(cases):
        fn = m.get(name)
        results.append((key, checks.by_position(grad(m, name, args), fn)))
        refs[key] = checks.by_position(trace_grad(m, name, args, (1.0,)), fn)
    return results, refs


def test_grad_check_counts_a_perturbed_gradient():
    results, refs = _gradients()
    assert checks.check_grads(results, refs) == (2, 0)
    key, got = results[1]
    bad = dict(got)
    flat = bad[0].flat()
    flat[2] += 1e-9
    bad[0] = DenseTensor.from_flat(bad[0].shape, flat)
    assert checks.check_grads([results[0], (key, bad)], refs) == (2, 1)
    assert checks.check_grads([results[0], (key, None)], refs) == (2, 1)


def test_batched_check_counts_one_perturbed_lane():
    results, refs = _gradients()
    lanes = [results[0][1], results[0][1], results[1][1]]
    keys = [0, 0, 1]
    assert checks.check_batched([(keys, lanes)], refs) == (1, 0)
    bad = dict(lanes[1])
    bad[1] = bad[1] * (1 + 1e-10) + 1e-10
    assert checks.check_batched([(keys, [lanes[0], bad, lanes[2]])], refs) == (1, 1)


def test_dan_check_counts_a_perturbed_record():
    base = checks.DAN_BASELINES
    runs = [(0.0, [dict(base[0.0])]), (1.0, [dict(base[1.0])]), (0.0, [dict(base[0.0])])]
    assert checks.check_dan_records(runs, base) == (4, 0)
    off = dict(base[1.0], c_loss=base[1.0]["c_loss"] * (1 + 2 ** -52))
    assert checks.check_dan_records([runs[0], (1.0, [off]), runs[2]], base) == (4, 1)
    # away from the defaults a rerun must still reproduce the first run
    assert checks.check_dan_records([runs[0], (0.0, [off])], None) == (1, 1)


def test_cli_check_counts_exit_code_one():
    wl = CliFused()
    tr = NullTracer(Speed())
    ctx = wl.setup(3, 0, tr)
    m = Measured()
    wl.run_script(ctx, tr, m)
    assert wl.check(ctx, m, tr)[:2] == (5, 0)
    idx, _, out = m.results[1]
    m.results[1] = (idx, 1, out)
    assert wl.check(ctx, m, tr)[:2] == (5, 1)


def test_cli_check_counts_a_perturbed_payload():
    value = 1.2345
    expect = [checks.payload_close(value)]
    assert checks.check_cli([(0, 0, json.dumps(value))], expect) == (1, 0)
    assert checks.check_cli([(0, 0, json.dumps(value + 1e-9))], expect) == (1, 1)
    assert checks.check_cli([(0, 0, "not json")], expect) == (1, 1)


def test_fused_closed_form_matches_the_interpreter():
    m = parse_ir(FUSED_PATH.read_text())
    n = 64
    x = [0.02 * i - 0.6 for i in range(n)]
    w = [1.1 - 0.03 * i for i in range(n)]
    c = 1.7
    args = (DenseTensor.from_flat((n,), x), DenseTensor.from_flat((n,), w), c)
    value, g = fused_closed_form(x, w, c)
    assert checks.rel(eval_function(m, "fused", args)[0], value) <= checks.TAPE_TOL
    got = checks.by_position(grad(m, "fused", args), m.get("fused"))
    want = {0: DenseTensor.from_flat((n,), g["x"]),
            1: DenseTensor.from_flat((n,), g["w"]), 2: g["c"]}
    assert checks.grads_match(got, want)
