"""Command line front end.

Subcommands map one-to-one onto the library surface: check (parse and
verify), run (interpret), grad (adjoint evaluation or adjoint source),
batch (lane-vectorized execution), gradcheck (three-way gradient
cross-check), train-dan (the training demo), and print (canonical
formatting).

stdout carries only the machine-readable payload: compact JSON, except
for the two commands whose payload is IR text.  Diagnostics and notes
go to stderr.  Exit codes: 0 success, 1 domain or verification failure,
2 usage error.

Values cross the boundary as JSON: scalars as plain numbers or
booleans, tensors as {"shape": [...], "data": [...]} records with
row-major data.  Floats render in Python's shortest-repr form, so an
integral result prints as 6.0 rather than 6, and a non-finite float as
the string "Infinity", "-Infinity" or "NaN", so payloads are strict JSON.
Arguments are read the same way, so a printed value can be passed back;
the bare tokens NaN and Infinity are not JSON and are refused.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import prod

from .interp import EvalError, eval_function
from .ir import Module, print_ir
from .nn_train import DANConfig, train
from .oracle import finite_diff, trace_grad
from .ops import OpTypeError
from .parser import ParseError, parse_ir
from .progen import stable_inputs
from .reverse_ad import ADError, augment, grad
from .spmd_batch import BatchError, stack_lanes, unstack_lanes, vectorize
from .structure import StructureError, verify
from .tensor import DenseTensor


class InvalidModule(Exception):
    """verify's diagnostics, one per line."""


_FAILURES = (ParseError, EvalError, ADError, BatchError, StructureError,
             OpTypeError, InvalidModule)

TAPE_TOL = 1e-12
FD_TOL = 1e-5


class UsageError(Exception):
    pass


def _load_module(path: str) -> Module:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")
    return parse_ir(text)


def _load_verified(path: str) -> Module:
    module = _load_module(path)
    diags = verify(module)
    if diags:
        raise InvalidModule("\n".join(map(str, diags)))
    return module


def _entry(module: Module, name: str):
    if name not in module.functions:
        raise UsageError(f"no function @{name} in {sorted(module.functions)}")
    return module.functions[name]


def _json_entry(module: Module, name: str):
    """@name, if its parameters and results all have a JSON form; a trace has none."""
    fn = _entry(module, name)
    for verb, tys in (("takes", [t for _, t in fn.params]), ("returns", fn.results)):
        for ty in tys:
            if ty.kind in ("tape", "tapes"):
                raise UsageError(f"@{fn.name} {verb} a {ty}, which has no JSON form")
    return fn


def _encode(v) -> object:
    if isinstance(v, DenseTensor):
        return {"shape": list(v.shape), "data": v.flat()}
    return v


def _number(x) -> float:
    """A JSON number, or a string _emit writes for a non-finite float, as a float."""
    if type(x) in (int, float) or x in ("Infinity", "-Infinity", "NaN"):
        return float(x)
    raise ValueError(f"{x!r} is not a number")


def _decode(ty, v):
    if ty.kind == "tensor":
        if not isinstance(v, dict) or set(v) != {"shape", "data"}:
            raise UsageError(
                f'expected {{"shape": [...], "data": [...]}} for {ty}')
        if tuple(v["shape"]) != ty.shape:
            raise UsageError(f"shape {v['shape']} does not match {ty}")
        try:
            # floats, the common case, need no check
            data = [x if type(x) is float else _number(x) for x in v["data"]]
            return DenseTensor.from_flat(ty.shape, data)
        except (TypeError, ValueError, OverflowError) as e:
            raise UsageError(f"bad tensor data for {ty}: {e}")
    if ty.kind == "f64":
        try:
            return _number(v)
        except (ValueError, OverflowError):
            pass
    if ty.kind == "i64" and isinstance(v, int) and not isinstance(v, bool):
        return v
    if ty.kind == "bool" and isinstance(v, bool):
        return v
    raise UsageError(f"cannot pass {v!r} as {ty}")


def _decode_args(fn, raw: object) -> tuple:
    if not isinstance(raw, list) or len(raw) != len(fn.params):
        raise UsageError(
            f"@{fn.name} takes {len(fn.params)} argument(s); --args must "
            f"be a JSON list of that length")
    return tuple(_decode(ty, v) for (_, ty), v in zip(fn.params, raw))


def _parse_json(flag: str, text: str) -> object:
    def bare(name):
        raise UsageError(f'{flag}: invalid JSON: bare {name} (write the string "{name}")')

    try:
        return json.loads(text, parse_constant=bare)
    except ValueError as e:  # a JSONDecodeError, or an int of too many digits
        raise UsageError(f"{flag}: invalid JSON: {e}")


def _unit_seeds(fn) -> tuple:
    out = []
    for ty in fn.results:
        if ty.kind == "tensor":
            out.append(DenseTensor.from_flat(ty.shape, [1.0] * prod(ty.shape)))
        elif ty.kind == "f64":
            out.append(1.0)
        elif ty.kind == "i64":
            out.append(0)
        else:
            out.append(False)
    return tuple(out)


def _emit(payload: object) -> None:
    # strict JSON: json spells inf and nan as bare constants; read back, they are strings
    strict = json.loads(json.dumps(payload), parse_constant=str)
    print(json.dumps(strict, separators=(",", ":"), allow_nan=False))


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _max_dev(x, y) -> float:
    if isinstance(x, DenseTensor):
        return max(map(_rel_dev, x.flat(), y.flat()), default=0.0)
    return _rel_dev(x, y)


# ------------------------------------------------------------ commands


def cmd_check(args) -> int:
    _load_verified(args.file)
    return 0


def cmd_print(args) -> int:
    sys.stdout.write(print_ir(_load_module(args.file)))
    return 0


def cmd_run(args) -> int:
    module = _load_verified(args.file)
    fn = _json_entry(module, args.entry)
    vals = _decode_args(fn, _parse_json("--args", args.args))
    out = eval_function(module, fn.name, vals)
    _emit([_encode(v) for v in out] if len(out) != 1 else _encode(out[0]))
    return 0


def cmd_grad(args) -> int:
    module = _load_verified(args.file)
    if args.emit_ir:
        augment(module, _entry(module, args.entry).name)
        sys.stdout.write(print_ir(module))
        return 0
    fn = _json_entry(module, args.entry)
    if args.args is None:
        raise UsageError("--args is required unless --emit-ir is given")
    vals = _decode_args(fn, _parse_json("--args", args.args))
    if args.seeds is None:
        seeds = _unit_seeds(fn)
    else:
        raw = _parse_json("--seeds", args.seeds)
        if not isinstance(raw, list) or len(raw) != len(fn.results):
            raise UsageError(
                f"--seeds must be a JSON list of {len(fn.results)} value(s)")
        seeds = tuple(_decode(ty, v) for ty, v in zip(fn.results, raw))
    cots = grad(module, fn.name, vals, seeds)
    _emit({fn.value_name(pv): _encode(cots[pv])
           for pv, ty in fn.params if ty.is_differentiable})
    return 0


def cmd_batch(args) -> int:
    if args.lanes < 1:
        raise UsageError("-B must be at least 1")
    module = _load_verified(args.file)
    fn = _json_entry(module, args.entry)
    raw = _parse_json("--args", args.args)
    if not isinstance(raw, list) or len(raw) != args.lanes:
        raise UsageError(f"--args must be a JSON list of {args.lanes} lane(s)")
    if len(fn.params) == 1 and not any(isinstance(v, list) for v in raw):
        raw = [[v] for v in raw]
    lanes = [_decode_args(fn, lane) for lane in raw]
    bfn = vectorize(module, fn.name, args.lanes)
    stacked = tuple(
        stack_lanes(ty, [lane[i] for lane in lanes])
        for i, (_, ty) in enumerate(fn.params)
    )
    out = eval_function(module, bfn.name, stacked)
    cols = [
        [_encode(v) for v in unstack_lanes(ty, out[i], args.lanes)]
        for i, ty in enumerate(fn.results)
    ]
    _emit(cols if len(cols) != 1 else cols[0])
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    module = _load_verified(args.file)
    fn = _json_entry(module, args.entry)
    seeds = _unit_seeds(fn)
    rng = random.Random(args.seed)
    worst_tape = worst_fd = 0.0
    done = skipped = 0
    for _ in range(args.trials):
        vals = stable_inputs(module, fn.name, rng)
        if vals is None:
            print("note: no margin-stable input found, trial skipped",
                  file=sys.stderr)
            skipped += 1
            continue
        try:
            g = grad(module, fn.name, vals, seeds)
            gt = trace_grad(module, fn.name, vals, seeds)
            gf = finite_diff(module, fn.name, vals, seeds)
        except EvalError as e:
            print(f"note: trial skipped ({e})", file=sys.stderr)
            skipped += 1
            continue
        for vid in gt:
            worst_tape = max(worst_tape, _max_dev(g[vid], gt[vid]))
            worst_fd = max(worst_fd, _max_dev(g[vid], gf[vid]))
        done += 1
    ok = done > 0 and worst_tape <= TAPE_TOL and worst_fd <= FD_TOL
    _emit({"trials": done, "skipped": skipped,
           "max_tape_dev": worst_tape, "max_fd_dev": worst_fd,
           "tape_tol": TAPE_TOL, "fd_tol": FD_TOL, "pass": ok})
    return 0 if ok else 1


def _dan_config(raw: dict) -> DANConfig:
    """The training config a JSON object names; UsageError if it cannot run.

    Keys are DANConfig's fields, with "lambda" accepted for lam.
    """
    kw = {}
    for k, v in raw.items():
        field = "lam" if k == "lambda" else k
        if field not in DANConfig.__dataclass_fields__:
            raise UsageError(f"unknown config key {k!r}")
        default = getattr(DANConfig, field)
        if isinstance(default, tuple):
            want = "a list of at least two positive integers"
            ok = isinstance(v, list) and len(v) >= 2 and all(_is_int(d) and d >= 1 for d in v)
        elif isinstance(default, float):
            want, ok = "a number", _is_int(v) or isinstance(v, float)
        else:
            want, ok = "an integer", _is_int(v)
        if not ok:
            raise UsageError(f"config key {k!r} must be {want}, got {v!r}")
        kw[field] = type(default)(v)
    cfg = DANConfig(**kw)
    if not 1 <= cfg.batch_size <= cfg.n_samples:
        raise UsageError(f"batch_size must be between 1 and n_samples ({cfg.n_samples}), "
                         f"got {cfg.batch_size}")
    if cfg.trunk_sizes[0] != cfg.dim:
        raise UsageError(f"trunk_sizes must start at dim ({cfg.dim}), got {list(cfg.trunk_sizes)}")
    if cfg.head_sizes[0] != cfg.trunk_sizes[-1]:
        raise UsageError(f"head_sizes must start at the last trunk size "
                         f"({cfg.trunk_sizes[-1]}), got {list(cfg.head_sizes)}")
    if cfg.head_sizes[-1] != 1:
        raise UsageError(f"head_sizes must end at 1, got {list(cfg.head_sizes)}")
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def cmd_train_dan(args) -> int:
    raw = args.config
    if raw.lstrip().startswith("{"):
        cfg_json = _parse_json("--config", raw)
    else:
        try:
            with open(raw) as f:
                cfg_json = _parse_json("--config", f.read())
        except OSError as e:
            raise UsageError(f"cannot read {raw}: {e.strerror}")
    if not isinstance(cfg_json, dict):
        raise UsageError("--config must be a JSON object")
    history = train(_dan_config(cfg_json))
    try:
        history.write(args.out)
    except OSError as e:
        raise UsageError(f"cannot write {args.out}: {e.strerror}")
    last = history.records[-1] if history.records else None
    _emit({"epochs_run": len(history.records), "final": last})
    return 0


# ---------------------------------------------------------- dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="ssagrad",
        description="Verify, run, differentiate, and batch textual IR.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="parse and verify a module")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("print", help="reprint a module in canonical form")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_print)

    sp = sub.add_parser("run", help="evaluate a function")
    sp.add_argument("file")
    sp.add_argument("--entry", required=True)
    sp.add_argument("--args", required=True, help="JSON list of arguments")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("grad", help="parameter cotangents, or adjoint IR")
    sp.add_argument("file")
    sp.add_argument("--entry", required=True)
    sp.add_argument("--args", help="JSON list of arguments")
    sp.add_argument("--seeds", help="JSON list of result cotangents")
    sp.add_argument("--emit-ir", action="store_true", dest="emit_ir",
                    help="print the augmented module instead of evaluating")
    sp.set_defaults(fn=cmd_grad)

    sp = sub.add_parser("batch", help="run one function over stacked lanes")
    sp.add_argument("file")
    sp.add_argument("--entry", required=True)
    sp.add_argument("-B", type=int, required=True, dest="lanes",
                    help="lane count")
    sp.add_argument("--args", required=True,
                    help="JSON list of per-lane argument lists")
    sp.set_defaults(fn=cmd_batch)

    sp = sub.add_parser("gradcheck",
                        help="cross-check adjoints against tape and FD")
    sp.add_argument("file")
    sp.add_argument("--entry", required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("train-dan", help="run the two-head training demo")
    sp.add_argument("--config", default="{}",
                    help="inline JSON object or a path to one")
    sp.add_argument("--out", default="metrics.jsonl",
                    help="metrics file, one JSON record per epoch")
    sp.set_defaults(fn=cmd_train_dan)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _FAILURES as e:
        print(e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
