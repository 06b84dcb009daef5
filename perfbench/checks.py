"""Output checks, run after the timed region of every workload.

Each checker takes what the timed loop recorded plus an independent
reference and returns ``(attempted, failed)``.  A call that raised is
recorded with ``None`` as its output and always counts as failed.
"""

from __future__ import annotations

import json
import math

TAPE_TOL = 1e-12

# Last-epoch records of the default DANConfig runs with lam=0 and lam=1,
# the frozen regression baselines of acceptance criterion 7.
DAN_BASELINES = {
    0.0: {"epoch": 49, "c_loss": 0.2949463540327342,
          "d_loss": 0.25604216180024336, "class_acc": 0.915625,
          "domain_probe_acc": 0.94375},
    1.0: {"epoch": 49, "c_loss": 1.0499433851908182,
          "d_loss": 0.6899886883710424, "class_acc": 0.8875,
          "domain_probe_acc": 0.871875},
}


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def max_rel(x, y) -> float:
    """Worst relative deviation between two scalars or two tensors."""
    if hasattr(x, "flat") != hasattr(y, "flat"):
        return math.inf
    if hasattr(x, "flat"):
        if x.shape != y.shape:
            return math.inf
        return max(map(rel, x.flat(), y.flat()), default=0.0)
    return rel(x, y)


def by_position(cots: dict, fn) -> dict[int, object]:
    """Re-key a cotangent map from value ids to parameter positions.

    The checked code and the reference run on separately parsed
    modules, whose value ids need not agree; positions do.
    """
    return {i: cots[pv] for i, (pv, _) in enumerate(fn.params) if pv in cots}


def grads_match(got: dict | None, want: dict, tol: float = TAPE_TOL) -> bool:
    if got is None or got.keys() != want.keys():
        return False
    return all(max_rel(got[k], want[k]) <= tol for k in want)


def check_grads(results, refs, tol: float = TAPE_TOL) -> tuple[int, int]:
    """results: (key, positional cotangents or None); refs: key -> cotangents."""
    failed = sum(not grads_match(got, refs[key], tol) for key, got in results)
    return len(results), failed


def check_batched(results, refs, tol: float = TAPE_TOL) -> tuple[int, int]:
    """results: (lane keys, per-lane positional cotangents or None).

    One batched call fails when any of its lanes differs from the
    reference for that lane's inputs.
    """
    failed = 0
    for keys, lanes in results:
        if lanes is None or len(lanes) != len(keys):
            failed += 1
            continue
        failed += not all(grads_match(g, refs[k], tol) for k, g in zip(keys, lanes))
    return len(results), failed


def check_dan_records(runs, baselines: dict | None) -> tuple[int, int]:
    """runs: (lam, per-epoch records) in the order they ran.

    Every run must reproduce the first run with the same lam bit for
    bit.  With ``baselines`` (the default config), each run's last
    record must also equal the frozen baseline for its lam.
    """
    first: dict[float, list[dict]] = {}
    attempted = failed = 0
    for lam, records in runs:
        if lam in first:
            attempted += 1
            failed += records != first[lam]
        else:
            first[lam] = records
        if baselines is not None:
            attempted += 1
            failed += not records or records[-1] != baselines[lam]
    return attempted, failed


def dan_thresholds(plain: dict, confused: dict) -> dict:
    """Criterion 7's accuracy and probe-drop thresholds on last-epoch records."""
    drop = plain["domain_probe_acc"] - confused["domain_probe_acc"]
    return {
        "plain_probe_acc": plain["domain_probe_acc"],
        "probe_drop": drop,
        "confused_class_acc": confused["class_acc"],
        "met": (plain["domain_probe_acc"] >= 0.8 and drop >= 0.05
                and confused["class_acc"] >= 0.7),
    }


def check_cli(results, expect) -> tuple[int, int]:
    """results: (command index, exit code, stdout); expect[index](payload) -> bool.

    A command fails on a non-zero exit code or when its stdout payload
    does not satisfy the expectation for that command.
    """
    failed = 0
    for idx, rc, out in results:
        ok = rc == 0
        if ok:
            try:
                ok = expect[idx](out)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
        failed += not ok
    return len(results), failed


def json_close(got, want, tol: float = TAPE_TOL) -> bool:
    """Compare a decoded CLI payload (numbers, lists, tensor records) to want."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(json_close(got[k], want[k], tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(json_close(g, w, tol) for g, w in zip(got, want)))
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and rel(float(got), want) <= tol)


def payload_close(want, tol: float = TAPE_TOL):
    """An expectation that parses stdout as JSON and compares it to want."""
    return lambda out: json_close(json.loads(out), want, tol)
