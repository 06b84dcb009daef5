"""The four workloads: set-up, timed closed loop and output checks.

Each workload has ``setup(seed, part, tr)``, run ``SETUP_PARTS`` times,
``join(parts, seed)``, ``measure(ctx, tr, seconds)``, ``check(ctx, m,
tr)`` and ``metrics(m, speed)``.  One caller makes each call only after
the previous one returned; nothing runs in another thread or process.
Every call into ssagrad sits in a span of ``tr``, which records nothing
unless the run is traced, and the loops call ``tr.tick()`` between
operations so that every duration can be normalised to the machine's
speed around it (see spans.py).

End-to-end metrics shared by all workloads (README.md defines
``compile``, ``op``, ``items`` and ``program`` for each workload):

* ``compile_ms_p50``/``_p90``: IR text, or the code that emits IR, to
  runnable adjoint code;
* ``op_ms_p50``/``_p90``: latency of the workload's unit operation;
* ``items_per_s``: items per second of op time, per program, geometric
  mean over programs.
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from ssagrad import (DANConfig, Module, augment, batched_grad, dan_step,
                     generate_suite, grad, parse_ir, print_ir, stack_lanes,
                     trace_grad, unstack_lanes, vectorize, verify)
from ssagrad.cli import main as cli_main
from ssagrad.ir import F64
from ssagrad.nn_train import (_batch_tensors, _weight_args, build_eval_ir,
                              build_loss_ir, evaluate, init_params,
                              make_synthetic)
from ssagrad.oracle import trace_eval
from ssagrad.tensor import DenseTensor

import checks
from spans import p50, p90

# Every run sets up three times (setup_s is their median).  The corpus
# workloads use all three parts, 600 programs: with 200, which programs
# a seed draws moves their medians by 10% and more.
SETUP_PARTS = 3
PART_PROGRAMS = 200
INPUTS_PER = 5
BATCH_LANES = (8, 64)
DAN_SAMPLE_EVERY = 100
FUSED_PATH = Path(__file__).resolve().parent / "fused.ssair"
FUSED_N = 64
CLI_BATCH_LANES = 4


def instr_count(fn) -> int:
    return sum(len(b.body) for b in fn.blocks)


def tape_op_count(fn) -> int:
    return sum(ins.op.startswith("tape_") for b in fn.blocks for ins in b.body)


@dataclass
class Measured:
    """Samples of one timed loop; times are (start, duration) in seconds."""

    compile: list[tuple[float, float]] = field(default_factory=list)
    op: list[tuple[float, float]] = field(default_factory=list)
    # (start, duration, program, items done)
    work: list[tuple[float, float, int, int]] = field(default_factory=list)
    raised: int = 0
    results: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, what: str, exc: Exception) -> None:
        """Count a call that raised and show the first few tracebacks.

        The caller also records the call's output as None where the
        workload keeps outputs, so the checks count it as failed.
        """
        self.raised += 1
        if self.raised <= 3:
            print(f"{what} raised:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)


def items_per_s(work, norm) -> float:
    per: dict[int, list] = {}
    for t, d, prog, n in work:
        acc = per.setdefault(prog, [0, 0.0])
        acc[0] += n
        acc[1] += norm(t, d)
    return math.exp(statistics.fmean(math.log(n / s) for n, s in per.values()))


def common_metrics(m: Measured, speed) -> dict[str, float]:
    compile_s = speed.durations(m.compile)
    op_s = speed.durations(m.op)
    return {
        "compile_ms_p50": p50(compile_s) * 1e3,
        "compile_ms_p90": p90(compile_s) * 1e3,
        "op_ms_p50": p50(op_s) * 1e3,
        "op_ms_p90": p90(op_s) * 1e3,
        "items_per_s": items_per_s(m.work, speed.norm),
    }


def raw_metrics(m: Measured) -> dict[str, float]:
    """The same figures from durations that are not normalised."""
    return {
        "op_ms_p50": p50([d for _, d in m.op]) * 1e3,
        "items_per_s": items_per_s(m.work, lambda t, d: d),
    }


# ------------------------------------------------------------ corpus


@dataclass
class Program:
    module: Module  # the generated part, shared by its programs
    name: str
    inputs: list
    text: str  # the program alone, printed
    instrs: int


class CorpusPart:
    """One seeded generate_suite of 200 programs."""

    def __init__(self, seed: int, part: int, tr):
        module = Module()
        with tr.span("progen.generate_suite"):
            suite = generate_suite(module, random.Random(seed * SETUP_PARTS + part),
                                   PART_PROGRAMS, inputs_per=INPUTS_PER)
        # generate_suite names its n-th attempt gen{n}, and stops right
        # after accepting one, so the last name gives the attempt count
        self.attempts = int(suite[-1][0][len("gen"):]) + 1
        self.programs = []
        for name, inputs in suite:
            fn = module.get(name)
            self.programs.append(Program(module, name, inputs,
                                         print_ir(Module({name: fn})), instr_count(fn)))


class StaticCounts:
    """Exact sizes of the generated code, summed over programs."""

    def __init__(self):
        self.primal = self.adjoint = self.tape = self.batched = 0

    def add(self, pm: Module, name: str, lanes8=None) -> None:
        aug, pb = augment(pm, name)
        self.primal += instr_count(pm.get(name))
        self.adjoint += instr_count(aug) + instr_count(pb)
        self.tape += tape_op_count(aug) + tape_op_count(pb)
        if lanes8 is not None:
            self.batched += sum(instr_count(f) for f in lanes8)

    def ratios(self, corpus: "Corpus") -> dict[str, float]:
        out = {
            "reverse_ad.adjoint_instr_ratio": self.adjoint / self.primal,
            "reverse_ad.tape_op_share": self.tape / self.adjoint,
            "progen.accept_ratio": len(corpus.programs) / corpus.attempts,
        }
        if self.batched:
            out["spmd_batch.batched_instr_ratio"] = self.batched / self.adjoint
        return out


class Corpus:
    """The programs of all parts, visited in a seeded order."""

    def __init__(self, parts: list[CorpusPart], seed: int):
        self.programs = [p for part in parts for p in part.programs]
        self.attempts = sum(part.attempts for part in parts)
        self.order = list(range(len(self.programs)))
        random.Random(seed).shuffle(self.order)
        self._refs: dict[tuple[int, int], dict] = {}
        self._static = None

    @classmethod
    def build(cls, seed: int, tr) -> "Corpus":
        return cls([CorpusPart(seed, part, tr) for part in range(SETUP_PARTS)], seed)

    def compile(self, k: int, tr):
        """Parse, verify and augment program k; returns (module, diagnostics)."""
        prog = self.programs[k]
        with tr.span("parser.parse_ir", src="corpus", instrs=prog.instrs):
            pm = parse_ir(prog.text)
        with tr.span("verify.verify", src="corpus"):
            diags = verify(pm)
        with tr.span("reverse_ad.augment", src="corpus"):
            augment(pm, prog.name)
        return pm, diags

    def reference(self, k: int, j: int, tr) -> dict:
        """Tape-oracle gradient of program k at input j, by parameter position."""
        key = (k, j)
        if key not in self._refs:
            prog = self.programs[k]
            with tr.span("oracle.trace_grad", src="corpus"):
                cots = trace_grad(prog.module, prog.name, prog.inputs[j], (1.0,))
            self._refs[key] = checks.by_position(cots, prog.module.get(prog.name))
        return self._refs[key]

    def static(self, tr):
        """Every static count, and each program compiled and vectorized at B=8."""
        if self._static is None:
            counts, modules = StaticCounts(), []
            for k, prog in enumerate(self.programs):
                tr.tick()
                pm, _ = self.compile(k, tr)
                aug, pb = augment(pm, prog.name)
                with tr.span("spmd_batch.vectorize", src="corpus", lanes=8):
                    lanes8 = (vectorize(pm, aug.name, 8), vectorize(pm, pb.name, 8))
                counts.add(pm, prog.name, lanes8)
                modules.append(pm)
            self._static = counts.ratios(self), modules
        return self._static


def corpus_loop(corpus: Corpus, seconds: float):
    """(program index, first visit) in the corpus order: a whole pass, then
    on until the time is up."""
    n = len(corpus.order)
    end = perf_counter() + seconds
    i = 0
    while i < n or perf_counter() < end:
        yield corpus.order[i % n], i < n
        i += 1


class CorpusGrad:
    """Compile each program from its text, then take grad at its 5 inputs."""

    name = "corpus_grad"

    def setup(self, seed: int, part: int, tr):
        return CorpusPart(seed, part, tr)

    def join(self, parts, seed: int):
        return Corpus(parts, seed)

    def measure(self, corpus: Corpus, tr, seconds: float) -> Measured:
        m = Measured()
        counts = StaticCounts()
        for k, first in corpus_loop(corpus, seconds):
            prog = corpus.programs[k]
            tr.tick()
            try:
                t0 = perf_counter()
                pm, diags = corpus.compile(k, tr)
                m.compile.append((t0, perf_counter() - t0))
            except Exception as e:
                m.fail(f"compile of @{prog.name}", e)
                m.results.append((("compile", k), None))
                continue
            m.results.append((("compile", k), diags))
            fn = pm.get(prog.name)
            for j, args in enumerate(prog.inputs):
                try:
                    with tr.span("reverse_ad.grad", src="corpus"):
                        t0 = perf_counter()
                        g = grad(pm, prog.name, args)
                        dt = perf_counter() - t0
                except Exception as e:
                    m.fail(f"grad of @{prog.name}", e)
                    m.results.append(((k, j), None))
                    continue
                m.op.append((t0, dt))
                m.work.append((t0, dt, k, 1))
                m.results.append(((k, j), checks.by_position(g, fn)))
            if first:
                counts.add(pm, prog.name)
        m.extra["counts"] = counts.ratios(corpus)
        return m

    def check(self, corpus: Corpus, m: Measured, tr) -> tuple[int, int, dict]:
        compiled = [diags for key, diags in m.results if key[0] == "compile"]
        grads = [(key, g) for key, g in m.results if key[0] != "compile"]
        refs = {key: corpus.reference(*key, tr) for key, _ in grads}
        attempted, failed = checks.check_grads(grads, refs)
        failed += sum(d is None or bool(d) for d in compiled)
        attempted += len(compiled)
        return attempted, failed, {"counts": m.extra["counts"]}

    def metrics(self, m: Measured, speed) -> tuple[dict, dict]:
        e2e = common_metrics(m, speed)
        grads = speed.durations(m.op)
        detail = {
            "compile_ms_p50": (e2e["compile_ms_p50"], "ms"),
            "compile_ms_p90": (e2e["compile_ms_p90"], "ms"),
            "grad_us_p50": (e2e["op_ms_p50"] * 1e3, "us"),
            "grad_us_p90": (e2e["op_ms_p90"] * 1e3, "us"),
            "grads_per_s": (len(grads) / sum(grads), "1/s"),
        }
        return e2e, detail


@dataclass
class BatchedCtx:
    corpus: Corpus
    modules: list
    # per program: {lanes: (input index per lane, stacked args, seeds)}
    lanes: list


class BatchedPart:
    """A corpus part parsed once, with the lanes each program runs on."""

    def __init__(self, seed: int, part: int, tr):
        self.corpus = CorpusPart(seed, part, tr)
        self.modules, self.lanes = [], []
        rng = random.Random(seed * SETUP_PARTS + part)
        for prog in self.corpus.programs:
            with tr.span("parser.parse_ir", src="corpus", instrs=prog.instrs):
                pm = parse_ir(prog.text)
            self.modules.append(pm)
            fn = pm.get(prog.name)
            per_b = {}
            for B in BATCH_LANES:
                pick = [rng.randrange(len(prog.inputs)) for _ in range(B)]
                stacked = tuple(
                    stack_lanes(ty, [prog.inputs[j][i] for j in pick])
                    for i, (_, ty) in enumerate(fn.params))
                per_b[B] = (pick, stacked, (stack_lanes(F64, [1.0] * B),))
            self.lanes.append(per_b)


class CorpusBatched:
    """batched_grad at B=8 and B=64 per program, over the corpus parsed once."""

    name = "corpus_batched"

    def setup(self, seed: int, part: int, tr):
        return BatchedPart(seed, part, tr)

    def join(self, parts, seed: int):
        return BatchedCtx(Corpus([p.corpus for p in parts], seed),
                          [m for p in parts for m in p.modules],
                          [la for p in parts for la in p.lanes])

    def measure(self, ctx: BatchedCtx, tr, seconds: float) -> Measured:
        m = Measured()
        m.extra = {"vectorize": [], "calls": {B: [] for B in BATCH_LANES}}
        counts = StaticCounts()
        compiled = set()
        for k, _ in corpus_loop(ctx.corpus, seconds):
            pm = ctx.modules[k]
            name = ctx.corpus.programs[k].name
            tr.tick()
            if k not in compiled:
                try:
                    t0 = perf_counter()
                    with tr.span("reverse_ad.augment", src="corpus"):
                        aug, pb = augment(pm, name)
                    for B in BATCH_LANES:
                        with tr.span("spmd_batch.vectorize", src="corpus", lanes=B):
                            t1 = perf_counter()
                            vectorize(pm, aug.name, B)
                            vectorize(pm, pb.name, B)
                            m.extra["vectorize"].append((t1, perf_counter() - t1))
                    m.compile.append((t0, perf_counter() - t0))
                except Exception as e:
                    m.fail(f"compile of @{name}", e)
                    m.results.append(([], None, k, 0))
                    continue
                compiled.add(k)
                counts.add(pm, name, (vectorize(pm, aug.name, 8), vectorize(pm, pb.name, 8)))
            pair = 0.0
            t_pair = perf_counter()
            for B in BATCH_LANES:
                pick, stacked, seeds = ctx.lanes[k][B]
                keys = [(k, j) for j in pick]
                try:
                    with tr.span("spmd_batch.batched_grad", src="corpus", lanes=B):
                        t0 = perf_counter()
                        bg = batched_grad(pm, name, B, stacked, seeds)
                        dt = perf_counter() - t0
                except Exception as e:
                    m.fail(f"batched_grad of @{name} at B={B}", e)
                    m.results.append((keys, None, k, B))
                    pair = math.nan
                    continue
                pair += dt
                m.work.append((t0, dt, k, B))
                m.extra["calls"][B].append((t0, dt))
                m.results.append((keys, bg, k, B))
            if not math.isnan(pair):
                m.op.append((t_pair, pair))
        m.extra["counts"] = counts.ratios(ctx.corpus)
        return m

    def check(self, ctx: BatchedCtx, m: Measured, tr) -> tuple[int, int, dict]:
        results = []
        for keys, bg, k, B in m.results:
            fn = ctx.modules[k].get(ctx.corpus.programs[k].name)
            lanes = None
            if bg is not None:
                cols = {pv: unstack_lanes(ty, bg[pv], B)
                        for pv, ty in fn.params if pv in bg}
                lanes = [checks.by_position({pv: c[i] for pv, c in cols.items()}, fn)
                         for i in range(B)]
            results.append((keys, lanes))
        refs = {key: ctx.corpus.reference(*key, tr)
                for keys, _ in results for key in keys}
        attempted, failed = checks.check_batched(results, refs)
        return attempted, failed, {"counts": m.extra["counts"]}

    def metrics(self, m: Measured, speed) -> tuple[dict, dict]:
        e2e = common_metrics(m, speed)
        ex = m.extra
        rate = {B: B * len(ex["calls"][B]) / sum(speed.durations(ex["calls"][B]))
                for B in BATCH_LANES}
        detail = {
            "batched_b8_lane_grads_per_s": (rate[8], "1/s"),
            "batched_b64_lane_grads_per_s": (rate[64], "1/s"),
            "vectorize_ms_p50": (p50(speed.durations(ex["vectorize"])) * 1e3, "ms"),
        }
        return e2e, detail


# ------------------------------------------------------------ DAN


@dataclass
class DanCtx:
    cfg: DANConfig
    sizes: tuple
    data: list
    module: Module
    loss_name: str


class DanTrain:
    """The default DAN training loop, step by step, at lam=0 and lam=1."""

    name = "dan_train"

    def setup(self, seed: int, part: int, tr):
        cfg = DANConfig(seed=seed)
        sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
        data = make_synthetic(cfg)
        module = Module()
        with tr.span("nn_train.build", src="dan_setup"):
            loss = build_loss_ir(module, sizes, cfg.batch_size)
            augment(module, loss.name)
            build_eval_ir(module, sizes, len(data))
        return DanCtx(cfg, sizes, data, module, loss.name)

    def join(self, parts, seed: int):
        return parts[-1]

    def measure(self, ctx: DanCtx, tr, seconds: float) -> Measured:
        m = Measured()
        m.extra = {"train": [], "runs": [], "samples": []}
        end = perf_counter() + seconds
        r = 0
        while r < 2 or perf_counter() < end:
            cfg = replace(ctx.cfg, lam=(0.0, 1.0)[r % 2])
            r += 1
            calls: list[tuple[float, float]] = []
            records = self._train(ctx, cfg, tr, m, calls)
            if records is not None:
                m.extra["train"].append(calls)
                m.extra["runs"].append((cfg.lam, records))
        m.work = [(t, d, 0, 1) for t, d in m.op]
        return m

    def _train(self, ctx: DanCtx, cfg: DANConfig, tr, m: Measured, calls: list):
        """nn_train.train, driven one dan_step and evaluate at a time.

        Appends every dan_step and evaluate sample to ``calls``.
        """
        data = ctx.data
        params = init_params(ctx.sizes, random.Random(cfg.seed + 1))
        order_rng = random.Random(cfg.seed + 2)
        nb = len(data) // cfg.batch_size
        records = []
        for epoch in range(cfg.epochs):
            # the compile samples: the loss built on a fresh module, one
            # per epoch so that they spread over the whole run
            tr.tick()
            with tr.span("nn_train.build", src="dan"):
                t0 = perf_counter()
                fresh = Module()
                augment(fresh, build_loss_ir(fresh, ctx.sizes, cfg.batch_size).name)
                m.compile.append((t0, perf_counter() - t0))
            order = list(range(len(data)))
            order_rng.shuffle(order)
            c_sum = d_sum = 0.0
            for s in range(nb):
                batch = [data[i] for i in order[s * cfg.batch_size:(s + 1) * cfg.batch_size]]
                before = params
                tr.tick()
                try:
                    with tr.span("nn_train.dan_step", src="dan"):
                        t0 = perf_counter()
                        params, sm = dan_step(ctx.module, params, batch, cfg)
                        dt = perf_counter() - t0
                except Exception as e:
                    m.fail("dan_step", e)
                    return None
                m.op.append((t0, dt))
                calls.append((t0, dt))
                if (epoch * nb + s) % DAN_SAMPLE_EVERY == 0:
                    m.extra["samples"].append((cfg, before, batch, params, sm))
                c_sum += sm["c_loss"]
                d_sum += sm["d_loss"]
            tr.tick()
            try:
                with tr.span("nn_train.evaluate", src="dan"):
                    t0 = perf_counter()
                    ev = evaluate(ctx.module, params, data)
                    calls.append((t0, perf_counter() - t0))
            except Exception as e:
                m.fail("evaluate", e)
                return None
            records.append({
                "epoch": epoch, "c_loss": c_sum / nb, "d_loss": d_sum / nb,
                "class_acc": ev["class_acc"],
                "domain_probe_acc": ev["domain_probe_acc"],
            })
        return records

    def _step_ok(self, ctx: DanCtx, sample, tr) -> bool:
        """A sampled step's losses and update against the tape oracle.

        The reference update is the one dan_step documents: each
        parameter descends along the sum of both losses' gradients.
        """
        cfg, before, batch, after, sm = sample
        args = _weight_args(before) + _batch_tensors(batch) + (cfg.lam,)
        loss_fn = ctx.module.get(ctx.loss_name)
        with tr.span("oracle.trace_eval", src="dan"):
            (c_loss, d_loss), _ = trace_eval(ctx.module, ctx.loss_name, args)
        with tr.span("oracle.trace_grad", src="dan"):
            gc = checks.by_position(trace_grad(ctx.module, ctx.loss_name, args, (1.0, 0.0)), loss_fn)
            gd = checks.by_position(trace_grad(ctx.module, ctx.loss_name, args, (0.0, 1.0)), loss_fn)
        ok = (checks.rel(sm["c_loss"], c_loss) <= checks.TAPE_TOL
              and checks.rel(sm["d_loss"], d_loss) <= checks.TAPE_TOL)
        new = _weight_args(after)
        for i, old in enumerate(_weight_args(before)):
            want = DenseTensor(old.data - cfg.lr * (gc[i].data + gd[i].data))
            ok = ok and checks.max_rel(new[i], want) <= checks.TAPE_TOL
        return ok

    def check(self, ctx: DanCtx, m: Measured, tr) -> tuple[int, int, dict]:
        runs = m.extra["runs"]
        defaults = ctx.cfg == DANConfig()
        attempted, failed = checks.check_dan_records(
            runs, checks.DAN_BASELINES if defaults else None)
        samples = m.extra["samples"]
        # a raised dan_step or evaluate ends its run and keeps no output
        attempted += len(m.op) + m.raised
        failed += m.raised + sum(not self._step_ok(ctx, s, tr) for s in samples)
        notes = {"sampled_steps_checked": len(samples), "frozen_baselines_checked": defaults}
        last = {}
        for lam, records in runs:
            last.setdefault(lam, records[-1])
        if 0.0 in last and 1.0 in last:
            notes["criterion7_thresholds"] = checks.dan_thresholds(last[0.0], last[1.0])
        return attempted, failed, notes

    def metrics(self, m: Measured, speed) -> tuple[dict, dict]:
        e2e = common_metrics(m, speed)
        detail = {
            "dan_step_ms_p50": (e2e["op_ms_p50"], "ms"),
            "dan_step_ms_p90": (e2e["op_ms_p90"], "ms"),
            "train_s": (p50([sum(speed.durations(run)) for run in m.extra["train"]]), "s"),
        }
        return e2e, detail


# ------------------------------------------------------------ CLI


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def fused_closed_form(x: list[float], w: list[float], c: float):
    """Value and gradient of @fused = sum_i sigmoid(c * tanh(x_i^2 * w_i))."""
    value = 0.0
    gx, gw, gc = [], [], 0.0
    for xi, wi in zip(x, w):
        y = math.tanh(xi * xi * wi)
        s = _sigmoid(c * y)
        value += s
        ds = s * (1.0 - s)
        common = ds * c * (1.0 - y * y)
        gx.append(common * 2.0 * xi * wi)
        gw.append(common * xi * xi)
        gc += ds * y
    return value, {"x": gx, "w": gw, "c": gc}


@dataclass
class CliCtx:
    text: str
    x: list
    w: list
    c: float
    script: list
    expect: list


def _tensor_json(vals: list[float]) -> dict:
    return {"shape": [len(vals)], "data": vals}


def _gradcheck_passed(out: str) -> bool:
    return json.loads(out)["pass"] is True


class CliFused:
    """ssagrad.cli.main in-process on a fixed script over fused.ssair."""

    name = "cli_fused"

    def setup(self, seed: int, part: int, tr):
        text = FUSED_PATH.read_text()
        rng = random.Random(seed)

        def draw():
            x = [rng.uniform(-1.5, 1.5) for _ in range(FUSED_N)]
            w = [rng.uniform(-1.5, 1.5) for _ in range(FUSED_N)]
            return x, w, rng.uniform(0.5, 2.0)

        x, w, c = draw()
        lanes = [draw() for _ in range(CLI_BATCH_LANES)]
        value, g = fused_closed_form(x, w, c)
        path = str(FUSED_PATH)
        args = json.dumps([_tensor_json(x), _tensor_json(w), c])
        script = [
            ["check", path],
            ["run", path, "--entry", "fused", "--args", args],
            ["grad", path, "--entry", "fused", "--args", args],
            ["batch", path, "--entry", "fused", "-B", str(CLI_BATCH_LANES), "--args",
             json.dumps([[_tensor_json(lx), _tensor_json(lw), lc] for lx, lw, lc in lanes])],
            ["gradcheck", path, "--entry", "inner", "--trials", "3", "--seed", str(seed)],
        ]
        expect = [
            lambda out: out == "",
            checks.payload_close(value),
            checks.payload_close({"x": _tensor_json(g["x"]), "w": _tensor_json(g["w"]),
                                  "c": g["c"]}),
            checks.payload_close([fused_closed_form(*lane)[0] for lane in lanes]),
            _gradcheck_passed,
        ]
        return CliCtx(text, x, w, c, script, expect)

    def join(self, parts, seed: int):
        return parts[-1]

    def run_script(self, ctx: CliCtx, tr, m: Measured) -> None:
        """One pass of the script; a command that raises ends the pass."""
        total = 0.0
        t_pass = perf_counter()
        for idx, argv in enumerate(ctx.script):
            out, err = io.StringIO(), io.StringIO()
            tr.tick()
            try:
                with tr.span(f"cli.{argv[0]}", src="cli"):
                    t0 = perf_counter()
                    with redirect_stdout(out), redirect_stderr(err):
                        rc = cli_main(list(argv))
                    dt = perf_counter() - t0
            except Exception as e:
                m.fail(f"ssagrad {argv[0]}", e)
                m.results.append((idx, None, ""))
                return
            total += dt
            m.work.append((t0, dt, 0, 1))
            m.results.append((idx, rc, out.getvalue()))
        m.op.append((t_pass, total))

    def measure(self, ctx: CliCtx, tr, seconds: float) -> Measured:
        m = Measured()
        end = perf_counter() + seconds
        passes = 0
        while passes == 0 or perf_counter() < end:
            passes += 1
            # the compile sample: what `ssagrad grad` does before it runs
            tr.tick()
            t0 = perf_counter()
            with tr.span("parser.parse_ir", src="cli"):
                pm = parse_ir(ctx.text)
            with tr.span("verify.verify", src="cli"):
                verify(pm)
            with tr.span("reverse_ad.augment", src="cli"):
                augment(pm, "fused")
            m.compile.append((t0, perf_counter() - t0))
            self.run_script(ctx, tr, m)
        return m

    def check(self, ctx: CliCtx, m: Measured, tr) -> tuple[int, int, dict]:
        attempted, failed = checks.check_cli(m.results, ctx.expect)
        return attempted, failed, {}

    def metrics(self, m: Measured, speed) -> tuple[dict, dict]:
        e2e = common_metrics(m, speed)
        return e2e, {"cli_cmds_per_s": (e2e["items_per_s"], "1/s")}


WORKLOADS = {w.name: w for w in (CorpusGrad(), DanTrain(), CorpusBatched(), CliFused())}
