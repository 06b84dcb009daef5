"""End-to-end acceptance gate.

One test per shipped guarantee, run in order; each appends a PASS or
FAIL line to the summary printed at the end of the pytest run.  The
numeric tolerances here are the product's contract, so nothing in this
file may loosen them to accommodate an implementation change: fix the
implementation instead.
"""

import copy
import io
import json
import math
import random
import time
from contextlib import redirect_stdout

from ssagrad import (DANConfig, DenseTensor, Module, augment, batched_grad,
                     eval_function, finite_diff, fused_map_with_partials,
                     generate_suite, grad, grad_of_grad, parse_ir, print_ir,
                     stack_lanes, trace_grad, train, unstack_lanes, vectorize,
                     verify)
from ssagrad.cli import main as cli_main
from ssagrad.ir import F64, Br, Jmp
from ssagrad.nn_train import (_batch_tensors, _weight_args, build_loss_ir,
                              init_params, make_synthetic)

from conftest import ACCEPTANCE_LINES, CORPUS_SEED, max_rel, rel
from test_ir import CORRUPTIONS

TAPE_TOL = 1e-12
FD_TOL = 1e-5


def record(num: int, claim: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"{tag}  {num}. {claim}{suffix}")
    assert ok, f"criterion {num}: {claim}{suffix}"


def _features(fn) -> tuple[bool, bool, bool]:
    order = {b.name: i for i, b in enumerate(fn.blocks)}
    branch = any(isinstance(b.term, Br) for b in fn.blocks)
    loop = any(
        isinstance(b.term, Jmp) and order[b.term.target] <= order[b.name]
        for b in fn.blocks
    )
    tensor = any(str(ty).startswith("tensor") for _, ty in fn.params) or any(
        ins.attrs and "shape" in ins.attrs
        for b in fn.blocks for ins in b.body
    )
    return branch, loop, tensor


def test_criterion_1_generated_programs_triple_agreement():
    t0 = time.perf_counter()
    module = Module()
    suite = generate_suite(module, random.Random(CORPUS_SEED), 200,
                           inputs_per=5)
    n_branch = n_loop = n_tensor = 0
    worst_tape = worst_fd = 0.0
    for name, inputs in suite:
        br, lp, tn = _features(module.get(name))
        n_branch += br
        n_loop += lp
        n_tensor += tn
        for args in inputs:
            g = grad(module, name, args)
            gt = trace_grad(module, name, args, (1.0,))
            gf = finite_diff(module, name, args, (1.0,))
            for vid in gt:
                worst_tape = max(worst_tape, max_rel(g[vid], gt[vid]))
            for vid in gf:
                worst_fd = max(worst_fd, max_rel(g[vid], gf[vid]))
    dt = time.perf_counter() - t0
    ok = (len(suite) >= 200 and min(n_branch, n_loop, n_tensor) > 0
          and worst_tape <= TAPE_TOL and worst_fd <= FD_TOL and dt < 60.0)
    record(1, "reverse-mode gradients agree with the tape oracle and "
              "finite differences on 200 generated programs, 5 inputs each",
           ok, f"tape {worst_tape:.1e}, fd {worst_fd:.1e}, "
               f"{n_branch} branchy/{n_loop} loopy/{n_tensor} tensor, "
               f"{dt:.1f}s")


def test_criterion_2_analytic_fixtures(analytic):
    worst = 0.0
    for x, y in ((2.0, 3.0), (-1.5, 0.25), (0.0, 7.0)):
        g = analytic.get("prod")
        got = grad(analytic, "prod", (x, y))
        worst = max(worst, rel(got[g.params[0][0]], y),
                    rel(got[g.params[1][0]], x))
    for x in (1.7, -0.6, 2.0):
        c = analytic.get("cube")
        got = grad(analytic, "cube", (x,))
        worst = max(worst, rel(got[c.params[0][0]], 3 * x * x))
    for x in (2.5, -2.5, 0.125):
        a = analytic.get("absval")
        got = grad(analytic, "absval", (x,))
        worst = max(worst, rel(got[a.params[0][0]],
                               1.0 if x > 0 else -1.0))
    record(2, "product, loop-cube, and branch-abs gradients match their "
              "closed forms", worst <= 1e-12, f"worst {worst:.1e}")


def test_criterion_3_second_derivatives(analytic):
    m = parse_ir("""
func @tanhf(%x: f64) -> f64 {
^entry:
  %y = tanh %x
  ret %y
}

func @expf(%x: f64) -> f64 {
^entry:
  %y = exp %x
  ret %y
}
""")
    worst = 0.0
    for x in (1.1, -0.4, 2.0):
        worst = max(worst, rel(grad_of_grad(analytic, "cube", x), 6 * x))
    for x in (0.3, -1.2, 0.9):
        t = __import__("math").tanh(x)
        worst = max(worst, rel(grad_of_grad(m, "tanhf", x),
                               -2 * t * (1 - t * t)))
    for x in (0.0, 1.5, -0.7):
        worst = max(worst, rel(grad_of_grad(m, "expf", x),
                               __import__("math").exp(x)))
    record(3, "differentiating the generated adjoint reproduces analytic "
              "second derivatives of cube, tanh, and exp", worst <= 1e-9,
           f"worst {worst:.1e}")


_FUSED_SRC = """
func @sadd(%a: f64, %b: f64) -> f64 {
^entry:
  %s = add %a, %b
  %y = tanh %s
  ret %y
}

func @sgau(%a: f64, %c: f64) -> f64 {
^entry:
  %p = mul %a, %c
  %y = sigmoid %p
  ret %y
}

func @fsum(%a: tensor<5xf64>, %b: f64) -> f64 {
^entry:
  %y = fused_map %a, %b {fn = @sadd}
  %s = reduce_sum %y {axis = all}
  ret %s
}
"""


def test_criterion_4_fused_map_partials():
    m = parse_ir(_FUSED_SRC)
    rng = random.Random(11)
    h = 1e-6
    bit_identical = True
    worst_fd = 0.0
    for k in range(100):
        callee = "sadd" if k % 2 == 0 else "sgau"
        shape = rng.choice(((4,), (6,), (2, 3), (3, 3)))
        n = 1
        for d in shape:
            n *= d
        a = DenseTensor.from_flat(shape,
                                  [rng.uniform(-2, 2) for _ in range(n)])
        b: float | DenseTensor
        if k % 3 == 0:
            b = rng.uniform(-2, 2)
        else:
            b = DenseTensor.from_flat(shape,
                                      [rng.uniform(-2, 2) for _ in range(n)])
        primal, parts = fused_map_with_partials(m, callee, (a, b))
        for i in range(n):
            ai = a.flat()[i]
            bi = b if isinstance(b, float) else b.flat()[i]
            want = eval_function(m, callee, (ai, bi))[0]
            bit_identical &= primal.flat()[i] == want
            fd_a = (eval_function(m, callee, (ai + h, bi))[0]
                    - eval_function(m, callee, (ai - h, bi))[0]) / (2 * h)
            fd_b = (eval_function(m, callee, (ai, bi + h))[0]
                    - eval_function(m, callee, (ai, bi - h))[0]) / (2 * h)
            worst_fd = max(worst_fd, rel(parts[0].flat()[i], fd_a),
                           rel(parts[1].flat()[i], fd_b))

    fs = m.get("fsum")
    av = DenseTensor.from_flat((5,), [0.3, -1.1, 0.8, 2.0, -0.4])
    bv = 0.65
    g = grad(m, "fsum", (av, bv))
    gf = finite_diff(m, "fsum", (av, bv), (1.0,))
    worst_rev = max(max_rel(g[v], gf[v]) for v, _ in fs.params)
    ok = bit_identical and worst_fd <= 1e-6 and worst_rev <= 1e-6
    record(4, "fused elementwise maps keep bit-identical primals, partials "
              "match finite differences, and reverse mode sees through them",
           ok, f"partials fd {worst_fd:.1e}, reverse fd {worst_rev:.1e}")


def test_criterion_5_batched_lanes_match_map(corpus):
    module, suite = corpus
    rng = random.Random(CORPUS_SEED + 5)
    lane_mismatch = grad_worst = 0.0
    exact = True
    divergent_trips = branchy = 0
    for name, inputs in suite:
        fn = module.get(name)
        br, _, _ = _features(fn)
        branchy += br
        for lanes in (1, 3, 8):
            per = [rng.choice(inputs) for _ in range(lanes)]
            ints = [
                tuple(a for a in la if isinstance(a, int))
                for la in per
            ]
            if len(set(ints)) > 1:
                divergent_trips += 1
            stacked = tuple(
                stack_lanes(ty, [la[i] for la in per])
                for i, (_, ty) in enumerate(fn.params)
            )
            bfn = vectorize(module, name, lanes)
            bfn_cols = [
                unstack_lanes(ty, v, lanes)
                for v, ty in zip(eval_function(module, bfn.name, stacked),
                                 fn.results)
            ]
            for i in range(lanes):
                want = eval_function(module, name, per[i])
                exact &= tuple(col[i] for col in bfn_cols) == want

            seeds = (stack_lanes(F64, [1.0] * lanes),)
            bg = batched_grad(module, name, lanes, stacked, seeds)
            ptype = dict(fn.params)
            for i in range(lanes):
                g = grad(module, name, per[i], (1.0,))
                for vid in g:
                    got = unstack_lanes(ptype[vid], bg[vid], lanes)[i]
                    grad_worst = max(grad_worst, max_rel(got, g[vid]))
    ok = (exact and grad_worst <= 1e-12 and branchy > 0
          and divergent_trips > 0)
    record(5, "lane-batched execution reproduces the per-sample map "
              "exactly and batched gradients match stacked per-sample "
              "gradients", ok,
           f"grad {grad_worst:.1e}, {branchy} branchy, "
           f"{divergent_trips} divergent-trip batches")


def test_criterion_6_dan_loss_differentiates():
    cfg = DANConfig()
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    module = Module()
    loss_fn = build_loss_ir(module, sizes, cfg.batch_size)
    one_function = (loss_fn.name in module.functions
                    and len(loss_fn.results) == 2
                    and not verify(module))
    aug_fn, pb_fn = augment(module, loss_fn.name)
    augmented = (aug_fn.name in module.functions
                 and pb_fn.name in module.functions)

    data = make_synthetic(cfg)
    params = init_params(sizes, random.Random(cfg.seed + 1))
    X, Yc, Yd = _batch_tensors(data[:cfg.batch_size])
    args = _weight_args(params) + (X, Yc, Yd, cfg.lam)

    h = 1e-5
    worst = 0.0
    for seeds in ((1.0, 0.0), (0.0, 1.0)):
        g = grad(module, loss_fn.name, args, seeds)
        for idx in (0, 1):  # trunk W, trunk b
            base = args[idx]
            vid = loss_fn.params[idx][0]
            for j in range(len(base.flat())):
                def at(delta: float) -> float:
                    flat = list(base.flat())
                    flat[j] += delta
                    pa = list(args)
                    pa[idx] = DenseTensor.from_flat(base.shape, flat)
                    res = eval_function(module, loss_fn.name, tuple(pa))
                    return sum(s * r for s, r in zip(seeds, res))
                fd = (at(h) - at(-h)) / (2 * h)
                worst = max(worst, rel(g[vid].flat()[j], fd))
    ok = one_function and augmented and worst <= 1e-4
    record(6, "the two-head minibatch loss builds as one function, "
              "augments, and its trunk gradients match finite differences",
           ok, f"trunk fd {worst:.1e}")


def test_criterion_7_training_ledger():
    from dataclasses import replace

    t0 = time.perf_counter()
    plain = train(replace(DANConfig(), lam=0.0)).records[-1]
    confused = train(DANConfig()).records[-1]
    dt = time.perf_counter() - t0

    drop = plain["domain_probe_acc"] - confused["domain_probe_acc"]
    ok = (plain["domain_probe_acc"] >= 0.8 and drop >= 0.05
          and confused["class_acc"] >= 0.7 and dt < 120.0)

    # Observed once, frozen as the regression baseline: training is
    # bit-deterministic, so any drift here is a real behavior change.
    baseline_plain = {
        "epoch": 49, "c_loss": 0.2949463540327342,
        "d_loss": 0.25604216180024336, "class_acc": 0.915625,
        "domain_probe_acc": 0.94375,
    }
    baseline_confused = {
        "epoch": 49, "c_loss": 1.0499433851908182,
        "d_loss": 0.6899886883710424, "class_acc": 0.8875,
        "domain_probe_acc": 0.871875,
    }
    ok = ok and plain == baseline_plain and confused == baseline_confused
    record(7, "default training runs hit the ledgered accuracy and "
              "probe-drop thresholds and reproduce the frozen baselines",
           ok, f"probe {plain['domain_probe_acc']:.4f}->"
               f"{confused['domain_probe_acc']:.4f}, "
               f"class {confused['class_acc']:.4f}, {dt:.1f}s")


def test_criterion_8_roundtrip_and_verifier_soundness(corpus):
    module, suite = corpus
    txt = print_ir(module)
    roundtrip = print_ir(parse_ir(txt)) == txt

    # each corruption edits its copy in place and returns False when the
    # program offers nothing to edit; only applied edits are judged
    rng = random.Random(CORPUS_SEED + 8)
    false_rejects = false_accepts = applied = 0
    for name, _ in suite:
        fn = module.get(name)
        clean = Module()
        clean.add(copy.deepcopy(fn))
        if verify(clean):
            false_rejects += 1
        for corrupt in CORRUPTIONS:
            broken_fn = copy.deepcopy(fn)
            if not corrupt(broken_fn, rng):
                continue
            applied += 1
            broken = Module()
            broken.add(broken_fn)
            if not verify(broken):
                false_accepts += 1
    ok = roundtrip and false_rejects == 0 and false_accepts == 0
    record(8, "parse/print round-trips the whole corpus module and the "
              "verifier rejects every seeded corruption", ok,
           f"{len(suite)} programs x {len(CORRUPTIONS)} corruptions, "
           f"{applied} applied, {false_rejects} false rejects, "
           f"{false_accepts} false accepts")


def test_criterion_9_cli_determinism(tmp_path):
    src = tmp_path / "m.ssair"
    src.write_text(_FUSED_SRC)
    hist = tmp_path / "hist.jsonl"
    dan_cfg = json.dumps({
        "dim": 6, "trunk_sizes": [6, 4], "head_sizes": [4, 1],
        "n_samples": 48, "batch_size": 8, "epochs": 2,
    })
    commands = [
        ["check", str(src)],
        ["print", str(src)],
        ["run", str(src), "--entry", "sgau", "--args", "[0.5,-1.25]"],
        ["grad", str(src), "--entry", "fsum", "--args",
         '[{"shape":[5],"data":[0.3,-1.1,0.8,2.0,-0.4]},0.65]'],
        ["grad", str(src), "--entry", "sadd", "--emit-ir"],
        ["batch", str(src), "--entry", "sgau", "-B", "3", "--args",
         "[[0.1,0.2],[0.3,0.4],[-0.5,0.6]]"],
        ["gradcheck", str(src), "--entry", "sgau", "--trials", "5",
         "--seed", "3"],
        ["train-dan", "--config", dan_cfg, "--out", str(hist)],
    ]
    stable = True
    for argv in commands:
        runs = []
        for _ in range(3):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli_main(list(argv))
            extra = hist.read_text() if argv[0] == "train-dan" else ""
            runs.append((rc, buf.getvalue(), extra))
        stable &= runs[0] == runs[1] == runs[2] and runs[0][0] == 0
    record(9, "every CLI command is bit-identical across three repeated "
              "runs", stable, f"{len(commands)} commands x 3 runs")
