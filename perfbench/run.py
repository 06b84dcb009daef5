"""ssagrad benchmark: end-to-end and per-layer metrics of four workloads.

One workload in this process:

    python3 perfbench/run.py --workload corpus_grad --seed 7 --seconds 10 --trace 0

prints a detail line (the metrics under the names of each workload,
the static counts, the checks' notes and the environment) and, last,
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` the run records spans, runs the
layer probes and reports the per-layer ones instead.

Every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py --all [--seed 7] [--seconds 10]

prints every metric with its unit, the tracing overhead, the check of
the static counts across runs, and the indicative baselines of
ROADMAP item 1 beside the traced figures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("corpus_grad", "dan_train", "corpus_batched", "cli_fused")
DEFAULT_SEED = 7  # DANConfig's own seed: dan_train checks the frozen baselines

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "passed_share": "ratio",
    "compile_ms_p50": "ms", "compile_ms_p90": "ms", "op_ms_p50": "ms",
    "op_ms_p90": "ms", "items_per_s": "1/s",
}

# ROADMAP item 1's indicative figures: (per-layer metric, low, high)
ROADMAP_BASELINES = [
    ("interp.dan_adjoint_over_primal", 3.0, 4.0),
    ("interp.grad_over_eval", 4.5, 4.5),
    ("progen.suite_s", 3.8, 3.8),
    ("spmd_batch.speedup_b8", 1.3, 1.3),
    ("spmd_batch.speedup_b64", 3.5, 3.5),
]


def commit() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_ssagrad() -> float:
    """Import ssagrad from this checkout's src/ and return the import time."""
    if not (SRC / "ssagrad" / "__init__.py").is_file():
        raise SystemExit(f"error: no ssagrad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import ssagrad
    import workloads  # noqa: F401  (imports numpy and the ssagrad modules used)
    dt = perf_counter() - t0
    if Path(ssagrad.__file__).resolve().parent != SRC / "ssagrad":
        raise SystemExit(f"error: imported ssagrad from {ssagrad.__file__}")
    return dt


def environment(args) -> dict:
    import numpy
    return {"commit": commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_one(args) -> int:
    import_s = import_ssagrad()
    import probes
    from spans import WINDOW, NullTracer, Speed, Tracer, p50
    from workloads import SETUP_PARTS, WORKLOADS, Corpus, raw_metrics

    wl = WORKLOADS[args.workload]
    speed = Speed()
    tr = (Tracer if args.trace else NullTracer)(speed)
    # a set-up is one long call, so it is scaled by the reference timings
    # taken right before and right after it
    setups, parts = [], []
    for part in range(SETUP_PARTS):
        for _ in range(WINDOW):
            speed.sample()
        t0 = perf_counter()
        parts.append(wl.setup(args.seed, part, tr))
        setups.append((t0, perf_counter() - t0))
    for _ in range(WINDOW):
        speed.sample()
    ctx = wl.join(parts, args.seed)
    del parts
    m = wl.measure(ctx, tr, args.seconds)
    attempted, failed, notes = wl.check(ctx, m, tr)
    e2e, named = wl.metrics(m, speed)
    share = failed / attempted
    # import happens once per process, so it is the one raw term
    e2e.update(setup_s=import_s + p50(speed.durations(setups)),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               passed_share=1.0 - share)
    named.update(setup_s=(e2e["setup_s"], "s"), peak_rss_mb=(e2e["peak_rss_mb"], "MB"),
                 failed_share=(share, "ratio"))
    detail = {
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": {"compile": len(m.compile), "op": len(m.op), "items": sum(w[3] for w in m.work),
                    "setup": len(setups), "reference": len(speed.took)},
        "raw": raw_metrics(m),
        "reference_loop_ms_p50": p50(speed.took) * 1e3,
        "notes": notes, "env": environment(args),
    }
    if args.trace:
        corpus = getattr(ctx, "corpus", ctx if isinstance(ctx, Corpus) else None)
        if corpus is None:
            corpus = Corpus.build(args.seed, tr)
        a, f = probes.probe_corpus(corpus, tr, args.seed)
        attempted, failed = attempted + a, failed + f
        probes.probe_dan(ctx if args.workload == "dan_train"
                         else WORKLOADS["dan_train"].setup(args.seed, 0, tr), tr)
        a, f = probes.probe_cli(ctx if args.workload == "cli_fused"
                                else WORKLOADS["cli_fused"].setup(args.seed, 0, tr), tr)
        attempted, failed = attempted + a, failed + f
        metrics = probes.layer_metrics(tr, corpus.static(tr)[0])
        detail["layers"] = tr.busy()
        detail["spans"] = len(tr.spans)
    else:
        metrics = {k: (v, UNITS[k]) for k, v in e2e.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ------------------------------------------------------------ --all


def child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def fmt(v: float) -> str:
    return f"{v:.4g}"


def run_all(args) -> int:
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    layers = {}
    for name in NAMES:
        detail, result = child(name, args.seed, args.seconds, 0)
        tdetail, tresult = child(name, args.seed, args.seconds, 1)
        overhead = {
            k: {"untraced": e["value"], "traced": tdetail["end_to_end"][k]["value"],
                "difference": tdetail["end_to_end"][k]["value"] - e["value"],
                "unit": e["unit"]}
            for k, e in detail["end_to_end"].items()}
        counts = detail["notes"].get("counts", {})
        report["workloads"][name] = {
            "correct": result["correct"] and tresult["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "end_to_end": result["metrics"], "named": detail["named"],
            "tracing_overhead": overhead, "notes": detail["notes"],
            "env": detail["env"], "per_layer": tresult["metrics"],
        }
        layers[name] = tresult["metrics"]

        print(f"== {name}  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  traced correct={tresult['correct']}")
        for k, o in overhead.items():
            print(f"  {k:<32} {fmt(o['untraced']):>10} {o['unit']:<6} "
                  f"traced {fmt(o['traced']):>10}  diff {fmt(o['difference'])}")
        for k, e in detail["named"].items():
            print(f"  {k:<32} {fmt(e['value']):>10} {e['unit']}")
        for k, v in counts.items():
            print(f"  {k:<32} {v!r}")

    first = layers[NAMES[0]]
    print("== per-layer (traced run of each workload)")
    print(f"  {'metric':<34}" + "".join(f"{n:>16}" for n in NAMES))
    for k, e in first.items():
        print(f"  {k:<34}" + "".join(f"{fmt(layers[n][k]['value']):>16}" for n in NAMES)
              + f"  {e['unit']}")

    repeat = {}
    for name in ("corpus_grad", "corpus_batched"):
        counts = report["workloads"][name]["notes"]["counts"]
        repeat[name] = all(v == layers[n][k]["value"] for k, v in counts.items() for n in NAMES)
    report["static_counts_repeat"] = repeat
    print(f"== static counts identical across untraced and traced runs: {repeat}")

    print("== ROADMAP item 1 baselines against the traced runs (median over workloads)")
    report["roadmap"] = {}
    for k, lo, hi in ROADMAP_BASELINES:
        got = statistics.median(layers[n][k]["value"] for n in NAMES)
        agrees = lo * 0.85 <= got <= hi * 1.15
        report["roadmap"][k] = {"measured": got, "roadmap": [lo, hi], "within_15pct": agrees}
        want = f"{lo}" if lo == hi else f"{lo}-{hi}"
        print(f"  {k:<34} measured {fmt(got):>8}  roadmap {want:<8} "
              f"{'agrees' if agrees else 'DISAGREES'}")
    print(json.dumps(report))
    ok = all(w["correct"] for w in report["workloads"].values()) and all(repeat.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
