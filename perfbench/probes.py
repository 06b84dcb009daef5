"""Layer probes of the traced run, and the per-layer metrics from their spans.

A traced run first runs its own workload with spans on, then these
probes, so that every per-layer metric is measured whichever workload
was asked for.  Each probe calls one module's public functions on the
inputs of the workload that module serves: the corpus, the DAN loss at
its training shapes, or the CLI's fused module.  Probe outputs that
have a reference are checked like the workload's own.
"""

from __future__ import annotations

import random

from ssagrad import (Machine, Module, augment, batched_grad, eval_function,
                     finite_diff, flatten, fused_map_with_partials, grad,
                     parse_ir, stack_lanes, structurize, vectorize)
from ssagrad import tensor as T
from ssagrad.ir import F64
from ssagrad.nn_train import (_batch_tensors, _weight_args, build_loss_ir,
                              evaluate, init_params)
from ssagrad.tensor import DenseTensor

import checks
from spans import p50
from workloads import BATCH_LANES, FUSED_N, CliFused, Corpus, Measured

# programs whose per-lane grad loop is timed against batched_grad
SPEEDUP_PROGRAMS = 40
DAN_CALL_REPEATS = 30
TENSOR_REPEATS = 300
DAN_EVAL_REPEATS = 10
CLI_PASSES = 10
PARTIALS_REPEATS = 30


def probe_corpus(corpus: Corpus, tr, seed: int) -> tuple[int, int]:
    _, modules = corpus.static(tr)
    results = []
    for k, (prog, pm) in enumerate(zip(corpus.programs, modules)):
        name, inputs = prog.name, prog.inputs
        fn = pm.get(name)
        tr.tick()
        with tr.span("structure.structurize", src="corpus"):
            sf = structurize(fn, pm)
        with tr.span("structure.flatten", src="corpus"):
            flatten(sf)
        for j, args in enumerate(inputs):
            tr.tick()
            with tr.span("interp.eval_function", src="corpus"):
                eval_function(pm, name, args)
            with tr.span("reverse_ad.grad", src="probe"):
                g = grad(pm, name, args)
            results.append(((k, j), checks.by_position(g, fn)))
        with tr.span("oracle.finite_diff", src="corpus"):
            finite_diff(prog.module, name, inputs[0], (1.0,))

    rng = random.Random(seed)
    for k in corpus.order[:SPEEDUP_PROGRAMS]:
        name, inputs = corpus.programs[k].name, corpus.programs[k].inputs
        pm = modules[k]
        fn = pm.get(name)
        aug, pb = augment(pm, name)
        for B in BATCH_LANES:
            vectorize(pm, aug.name, B)
            vectorize(pm, pb.name, B)
            lanes = [inputs[rng.randrange(len(inputs))] for _ in range(B)]
            stacked = tuple(stack_lanes(ty, [la[i] for la in lanes])
                            for i, (_, ty) in enumerate(fn.params))
            seeds = (stack_lanes(F64, [1.0] * B),)
            tr.tick()
            with tr.span("spmd_batch.per_lane_grads", src=f"b{B}"):
                for la in lanes:
                    grad(pm, name, la)
            with tr.span("spmd_batch.batched_grad", src=f"b{B}"):
                batched_grad(pm, name, B, stacked, seeds)

    refs = {key: corpus.reference(*key, tr) for key, _ in results}
    return checks.check_grads(results, refs)


def probe_dan(ctx, tr) -> None:
    module, cfg, data = ctx.module, ctx.cfg, ctx.data
    loss = module.get(ctx.loss_name)
    aug, pb = augment(module, loss.name)
    params = init_params(ctx.sizes, random.Random(cfg.seed + 1))
    weights = _weight_args(params)
    bs = cfg.batch_size
    nb = len(data) // bs
    for r in range(DAN_CALL_REPEATS):
        s = r % nb
        args = weights + _batch_tensors(data[s * bs:(s + 1) * bs]) + (cfg.lam,)
        tr.tick()
        machine = Machine(module)
        with tr.span("interp.machine_call", src="dan_aug"):
            out = machine.call(aug.name, args)
        for seeds in ((1.0, 0.0), (0.0, 1.0)):
            with tr.span("interp.machine_call", src="dan_pb"):
                machine.call(pb.name, (out[2], out[3]) + seeds)
        with tr.span("interp.machine_call", src="dan_primal"):
            Machine(module).call(loss.name, args)

    X, _, _ = _batch_tensors(data[:bs])
    layer = params.trunk[0]
    wt = T.transpose(layer.W)
    z = T.matmul(X, wt)
    zb = T.add(z, layer.b)
    for _ in range(TENSOR_REPEATS):
        tr.tick()
        with tr.span("tensor.matmul", src="dan"):
            T.matmul(X, wt)
        with tr.span("tensor.add", src="dan"):
            T.add(z, layer.b)
        with tr.span("tensor.unary_math", src="dan"):
            T.unary_math("tanh", zb)

    for _ in range(DAN_EVAL_REPEATS):
        tr.tick()
        with tr.span("nn_train.evaluate", src="dan"):
            evaluate(module, params, data)
        with tr.span("nn_train.build", src="dan"):
            fresh = Module()
            augment(fresh, build_loss_ir(fresh, ctx.sizes, bs).name)


def probe_cli(ctx, tr) -> tuple[int, int]:
    wl = CliFused()
    m = Measured()
    for _ in range(CLI_PASSES):
        wl.run_script(ctx, tr, m)
    module = parse_ir(ctx.text)
    x = DenseTensor.from_flat((FUSED_N,), ctx.x)
    w = DenseTensor.from_flat((FUSED_N,), ctx.w)
    for _ in range(PARTIALS_REPEATS):
        tr.tick()
        with tr.span("forward_ad.fused_map_with_partials", src="cli", elems=FUSED_N):
            fused_map_with_partials(module, "inner", (x, w))
    return wl.check(ctx, m, tr)[:2]


def layer_metrics(tr, counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run, plus exact counts."""
    g = tr.grouped()

    def d(name, src):
        return tr.durations(g[(name, src)])

    def med(name, src, scale):
        return p50(d(name, src)) * scale

    def ratio(num, den):
        return sum(d(*num)) / sum(d(*den))

    parse = g[("parser.parse_ir", "corpus")]
    partials = g[("forward_ad.fused_map_with_partials", "cli")]
    out = {
        "parser.parse_ms_p50": (med("parser.parse_ir", "corpus", 1e3), "ms"),
        "parser.instrs_per_s": (sum(s[4]["instrs"] for s in parse)
                                / sum(tr.durations(parse)), "1/s"),
        "verify.verify_ms_p50": (med("verify.verify", "corpus", 1e3), "ms"),
        "structure.structurize_ms_p50": (med("structure.structurize", "corpus", 1e3), "ms"),
        "structure.flatten_ms_p50": (med("structure.flatten", "corpus", 1e3), "ms"),
        "reverse_ad.augment_ms_p50": (med("reverse_ad.augment", "corpus", 1e3), "ms"),
        "interp.eval_us_p50": (med("interp.eval_function", "corpus", 1e6), "us"),
        "interp.grad_over_eval": (ratio(("reverse_ad.grad", "probe"),
                                        ("interp.eval_function", "corpus")), "ratio"),
        "interp.aug_call_ms_p50": (med("interp.machine_call", "dan_aug", 1e3), "ms"),
        "interp.pullback_call_ms_p50": (med("interp.machine_call", "dan_pb", 1e3), "ms"),
        "interp.dan_adjoint_over_primal": (
            (sum(d("interp.machine_call", "dan_aug")) + sum(d("interp.machine_call", "dan_pb")))
            / sum(d("interp.machine_call", "dan_primal")), "ratio"),
        "tensor.matmul_us": (med("tensor.matmul", "dan", 1e6), "us"),
        "tensor.add_us": (med("tensor.add", "dan", 1e6), "us"),
        "tensor.unary_math_us": (med("tensor.unary_math", "dan", 1e6), "us"),
        "spmd_batch.speedup_b8": (ratio(("spmd_batch.per_lane_grads", "b8"),
                                        ("spmd_batch.batched_grad", "b8")), "ratio"),
        "spmd_batch.speedup_b64": (ratio(("spmd_batch.per_lane_grads", "b64"),
                                         ("spmd_batch.batched_grad", "b64")), "ratio"),
        "forward_ad.partials_us_per_elem": (p50(tr.durations(partials)) * 1e6
                                            / partials[0][4]["elems"], "us"),
        "oracle.trace_grad_us_p50": (med("oracle.trace_grad", "corpus", 1e6), "us"),
        "oracle.finite_diff_us_p50": (med("oracle.finite_diff", "corpus", 1e6), "us"),
        "progen.suite_s": (med("progen.generate_suite", None, 1.0), "s"),
        "nn_train.evaluate_ms_p50": (med("nn_train.evaluate", "dan", 1e3), "ms"),
        "nn_train.build_ms": (med("nn_train.build", "dan", 1e3), "ms"),
    }
    for cmd in ("check", "run", "grad", "batch", "gradcheck"):
        out[f"cli.{cmd}_ms_p50"] = (med(f"cli.{cmd}", "cli", 1e3), "ms")
    for name, value in counts.items():
        out[name] = (value, "ratio")
    return out
