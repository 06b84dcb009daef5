"""Timing for the benchmark: machine-speed normalisation and spans.

Speed: on a shared host the interpreter's speed drifts by up to 2.5x
within a minute and changes within a second, so raw times of two runs
of the same code differ by 20-50%.  ``Speed`` runs a fixed reference
workload at most every 50 ms, between operations, and ``norm`` rescales
a duration to a machine on which that workload takes ``REF_NOMINAL_S``,
using the reference timings nearest in time.  The reference mixes a
bytecode-bound dict loop with JSON, string, sort and small-object work:
in runs on a shared 2-vCPU VM it tracked a dan_step, a corpus grad and
three CLI commands to 1-2% from run to run, where the dict loop alone
left 3-6%.  A change to ssagrad moves the normalised time in the same
proportion as the raw time; a change of machine speed cancels.

Garbage collection: a full collection scans every live object, and a
run builds hundreds of modules, so one that lands inside a timed call
costs it 100 ms and more at random.  ``tick`` therefore also collects,
then freezes the survivors out of later collections; calls still pay
for the young-generation collections their own allocations trigger.

Spans live in memory as ``[name, start, end, parent, attrs]`` lists;
``parent`` is the index of the enclosing open span, or -1.  A run with
tracing off uses ``NullTracer``, whose spans cost one no-op context
manager each, so the timed code is the same in both modes.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

# about its median between operations on the 2-vCPU VM the bounds were
# set on, so that normalised times there read close to raw ones
REF_NOMINAL_S = 0.0035
TICK_S = 0.05
# reference timings on each side of a duration that set its scale
WINDOW = 3


_DOC = json.dumps({f"k{i}": [i * 0.5, f"v{i}", {"a": i, "b": [1, 2, 3]}]
                   for i in range(60)})


class _Node:
    def __init__(self, op: str, args: list):
        self.op = op
        self.args = args

    def size(self) -> int:
        return 1 + sum(a.size() for a in self.args)


def _reference_work() -> None:
    d: dict[int, int] = {}
    x = 0
    for i in range(10000):
        d[i & 255] = i
        x ^= d.get(i & 127, 0)
    for _ in range(3):
        text = json.dumps(json.loads(_DOC), separators=(",", ":"))
        counts: dict[str, int] = {}
        for tok in text.replace("{", " { ").replace("}", " } ").split():
            counts[tok] = counts.get(tok, 0) + 1
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        _Node("r", [_Node(f"a{i}", [_Node("l", [])] * (i % 4)) for i in range(40)]).size()


class Speed:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = -TICK_S

    def tick(self) -> None:
        """Between operations: every 50 ms, settle the collector and time
        the reference loop."""
        if time.perf_counter() - self._last >= TICK_S:
            gc.collect()
            gc.freeze()
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        _reference_work()
        self._last = time.perf_counter()
        self.at.append(t0)
        self.took.append(self._last - t0)

    def norm(self, start: float, duration: float) -> float:
        i = bisect.bisect(self.at, start)
        near = self.took[max(0, i - WINDOW):i + WINDOW]
        return duration * REF_NOMINAL_S / statistics.median(near)

    def durations(self, samples) -> list[float]:
        """Normalised durations of (start, duration) samples."""
        return [self.norm(t, d) for t, d in samples]


class Tracer:
    def __init__(self, speed: Speed):
        self.speed = speed
        self.spans: list[list] = []
        self._open: list[int] = []

    def tick(self) -> None:
        self.speed.tick()

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, [name, 0.0, 0.0, -1, attrs])

    def grouped(self) -> dict[tuple[str, object], list[list]]:
        """Spans keyed by (name, attrs.get("src"))."""
        out: dict[tuple[str, object], list[list]] = {}
        for s in self.spans:
            out.setdefault((s[0], s[4].get("src")), []).append(s)
        return out

    def durations(self, spans) -> list[float]:
        return [self.speed.norm(s[1], s[2] - s[1]) for s in spans]

    def busy(self) -> dict[str, dict]:
        """Calls, busy and self time (raw seconds) of each layer's spans.

        The layer is the span name up to its first dot; self time is a
        span's duration less the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, dict] = {}
        for s, c in zip(self.spans, child):
            row = out.setdefault(s[0].split(".")[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += s[2] - s[1]
            row["self_s"] += s[2] - s[1] - c
        return out


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, rec: list):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        tr = self.tracer
        self.rec[3] = tr._open[-1] if tr._open else -1
        tr._open.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._open.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    _NO = _NoSpan()

    def __init__(self, speed: Speed):
        self.speed = speed

    def tick(self) -> None:
        self.speed.tick()

    def span(self, name: str, **attrs) -> _NoSpan:
        return self._NO


def p50(xs) -> float:
    return statistics.median(xs)


def p90(xs) -> float:
    """The 90th percentile (exclusive method); needs two samples or more."""
    return statistics.quantiles(xs, n=10)[-1]
