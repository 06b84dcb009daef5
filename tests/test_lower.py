"""Lowered code against the walker it caches.

Each case runs one call twice: on a module whose every function is
lowered, and on a deep copy that only walks.  The two must agree
bitwise in results (each value's class too), in steps consumed and in
the located EvalError, at the default budget and, where a sweep is
asked for, at every step limit below the steps the call needs.
"""

import copy
import dataclasses
import gc
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from ssagrad import (ADError, DANConfig, DenseTensor, EvalError, Machine, Module, augment,
                     dan_step, eval_function, parse_ir, stack_lanes, structurize, vectorize)
from ssagrad import tensor as T
from ssagrad.interp import DEFAULT_STEP_LIMIT, LOWER_AFTER, Tape, TapeBatch
from ssagrad.ir import term_uses
from ssagrad.lower import _BOXED, TEMPLATES, lower
from ssagrad.nn_train import (_batch_tensors, _weight_args, build_loss_ir, build_step_ir,
                              init_params, make_synthetic)
from ssagrad.progen import sample_inputs

from conftest import ANALYTIC_SRC
from test_interp import MAP_FAULTS_SRC, RECURSIVE_SRC
from test_spmd import BATCH_SRC
from test_tensor import _spread

FUSED_SRC = (Path(__file__).resolve().parents[1] / "perfbench" / "fused.ssair").read_text()

FAULTS_SRC = """
func @log_div_loop(%x: f64, %n: i64) -> f64 {
^entry:
  %i0 = const i64 0
  %a0 = const f64 1.0
  jmp ^head(%i0, %a0)
^head(%i: i64, %acc: f64):
  %more = lt %i, %n
  br %more, ^body(), ^exit(%acc)
^body:
  %one = const f64 1.0
  %d = sub %x, %one
  %q = div %acc, %d
  %l = log %q
  %k = const i64 1
  %i2 = add %i, %k
  jmp ^head(%i2, %l)
^exit(%r: f64):
  ret %r
}

func @calls_faulty(%x: f64) -> f64 {
^entry:
  %two = const i64 2
  %y = call %x, %two {fn = @log_div_loop}
  %z = mul %y, %x
  ret %z
}

func @tensor_div(%a: tensor<3xf64>, %b: tensor<3xf64>) -> f64 {
^entry:
  %q = div %a, %b
  %l = log %q
  %s = reduce_sum %l {axis = all}
  ret %s
}
"""


def tiered(module: Module) -> tuple[Module, Module]:
    """module with every function lowered, and a deep copy that only walks."""
    walked = copy.deepcopy(module)
    for fn in walked.functions.values():
        fn.tier.heat = math.inf
    for fn in module.functions.values():
        fn.tier.heat, fn.tier.code = math.inf, lower(fn, module)
    return module, walked


def dump(v):
    """A value's class and exact bits; traces as the values they hold."""
    if isinstance(v, Tape):
        return ["tape", [dump(x) for x in v]]
    if isinstance(v, TapeBatch):
        at = [v.at] * v.table.lanes if isinstance(v.at, int) else v.at.tolist()
        return ["tapes", [_path(v.table, n) for n in at]]
    if isinstance(v, DenseTensor):
        return ["tensor", v.shape, v.data.tobytes()]
    if isinstance(v, float):
        return ["float", v.hex()]
    return [type(v).__name__, v]


def _path(table, n: int) -> list:
    out = []
    while n:
        out.append(dump(table.values[n]))
        n = int(table.parent[n])
    return out


def outcome(module: Module, name: str, args: tuple, limit: int = DEFAULT_STEP_LIMIT):
    """("ok", results) or ("error", where and message), with the steps consumed."""
    m = Machine(module, limit)
    try:
        with np.errstate(all="ignore"):
            out = m.call(name, args)
    except EvalError as e:
        return "error", (e.function, e.block, e.index, e.message), limit - m.budget[0]
    return "ok", [dump(v) for v in out], limit - m.budget[0]


def check(pair, name: str, args: tuple, sweep: bool = True, typed: bool = True) -> tuple:
    """Assert that lowered and walked agree on @name(args); the walker's results."""
    lowered, walked = pair
    want = outcome(walked, name, args)
    assert outcome(lowered, name, args) == want, name
    if want[0] == "ok" and typed:
        # the lowered code itself returns them, without a replay
        with np.errstate(all="ignore"):
            direct = lowered.get(name).tier.code(Machine(lowered), args)
        assert direct is not None and [dump(v) for v in direct] == want[1], name
    if sweep:
        # every limit up to 256 steps, and about 64 limits spread over more
        n = want[2]
        for limit in sorted({*range(0, n, 1 if n <= 256 else n // 64), n - 1} - {-1}):
            assert outcome(lowered, name, args, limit) == outcome(walked, name, args, limit), \
                (name, limit)
    return Machine(walked).call(name, args) if want[0] == "ok" else None


def seeds_for(pb) -> tuple:
    return tuple(DenseTensor.full(ty.shape, 1.0) if ty.is_tensor else 1.0
                 for _, ty in pb.params[2:])


def check_adjoint(pair, name: str, args: tuple, sweep: bool = True) -> None:
    """@name__aug on args, then @name__pb on its traces and unit seeds."""
    lowered, _ = pair
    n = len(lowered.get(name).results)
    out = check(pair, f"{name}__aug", args, sweep)
    if out is not None:
        pb = lowered.get(f"{name}__pb")
        check(pair, pb.name, (out[n], out[n + 1]) + seeds_for(pb), sweep)


def build(src: str) -> tuple[Module, list[str], list[str]]:
    """The module of src with the adjoints augment can build; the
    function names and those that were augmented."""
    module = parse_ir(src)
    names = list(module.functions)
    augmented = []
    for name in names:
        try:
            augment(module, name)
            augmented.append(name)
        except ADError:
            pass
    return module, names, augmented


@pytest.mark.parametrize("src", [ANALYTIC_SRC, BATCH_SRC, FUSED_SRC],
                         ids=["analytic", "batch_src", "fused"])
def test_lowered_matches_walker(src):
    module, names, augmented = build(src)
    pair = tiered(module)
    rng = random.Random(15)
    for name in names:
        for _ in range(2):
            args = sample_inputs(module.get(name), rng)
            check(pair, name, args)
            if name in augmented:
                check_adjoint(pair, name, args)


def test_faults_match_walker():
    module, names, augmented = build(FAULTS_SRC + MAP_FAULTS_SRC)
    pair = tiered(module)
    t = DenseTensor.from_flat
    cases = [("log_div_loop", (x, n)) for x in (1.0, 0.5, 3.0, -0.0, math.nan, 7.5)
             for n in (0, 1, 2, 5)]
    cases += [("calls_faulty", (x,)) for x in (1.0, 0.5, 3.0, 2.5)]
    cases += [("tensor_div", (t((3,), [1.0, 2.0, 3.0]), t((3,), b)))
              for b in ([1.0, 0.0, 2.0], [1.0, -1.0, 2.0], [0.5, 0.25, 2.0])]
    cases += [("map_lg_div", (t((4,), xs),))
              for xs in ([3.0, 4.0, 5.0, 6.0], [3.0, 2.0, 5.0, 6.0], [3.0, -1.0, 5.0, 6.0])]
    for name, args in cases:
        check(pair, name, args)
        if name in augmented:
            check_adjoint(pair, name, args)


def test_ill_typed_arguments_run_on_the_walker():
    # the walker checks no argument class: ints run as i64 arithmetic,
    # and the lowered code must not run them as f64
    module = parse_ir(ANALYTIC_SRC + FAULTS_SRC)
    pair = tiered(module)
    for name, args in [("prod", (2, 3)), ("prod", (True, 2.5)), ("gauss", (1, 2)),
                       ("cube", (True,)), ("absval", (-3,)), ("powloop", (2.0, True)),
                       ("log_div_loop", (3, 2)), ("net", (1.0, 2.0))]:
        check(pair, name, args, typed=False)
        with np.errstate(all="ignore"):
            assert pair[0].get(name).tier.code(Machine(pair[0]), args) is None


@pytest.fixture(scope="module")
def corpus_slice(corpus):
    """40 corpus programs in a module of their own, with their adjoints
    and the batched forms at B=8 of each program and adjoint."""
    source, suite = corpus
    module = Module()
    for name, _ in suite[:40]:
        module.add(copy.deepcopy(source.get(name)))
    for name, _ in suite[:40]:
        aug, pb = augment(module, name)
        for f in (name, aug.name, pb.name):
            vectorize(module, f, 8)
    return module, suite[:40]


def test_corpus_slice_matches_walker(corpus_slice):
    module, suite = corpus_slice
    pair = tiered(module)
    rng = random.Random(40)
    for k, (name, inputs) in enumerate(suite):
        fn = module.get(name)
        # for time, step limits are swept on every 8th program's first input
        sweep = k % 8 == 0
        zeros = tuple(0.0 if isinstance(a, float) else a for a in inputs[0])
        for j, args in enumerate([*inputs[:2], zeros]):
            check(pair, name, args, sweep and j == 0)
            check_adjoint(pair, name, args, sweep and j == 0)
        per = [rng.choice(inputs) for _ in range(8)]
        stacked = tuple(stack_lanes(ty, [la[i] for la in per])
                        for i, (_, ty) in enumerate(fn.params))
        check(pair, f"{name}__batched_B8", stacked, sweep)
        out = check(pair, f"{name}__aug__batched_B8", stacked, sweep)
        pb = module.get(f"{name}__pb__batched_B8")
        check(pair, pb.name, (out[1], out[2]) + seeds_for(pb), sweep)


def test_dan_adjoint_matches_walker():
    cfg = DANConfig()
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    module = Module()
    loss = build_loss_ir(module, sizes, cfg.batch_size)
    augment(module, loss.name)
    pair = tiered(module)
    params = init_params(sizes, random.Random(cfg.seed + 1))
    batch = make_synthetic(cfg)[:cfg.batch_size]
    args = _weight_args(params) + _batch_tensors(batch) + (cfg.lam,)
    out = check(pair, f"{loss.name}__aug", args)
    for seeds in ((1.0, 0.0), (0.0, 1.0)):
        check(pair, f"{loss.name}__pb", (out[2], out[3]) + seeds)


def test_dan_step_function_matches_walker():
    cfg = DANConfig()
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    module = Module()
    step = build_step_ir(module, sizes, cfg.batch_size)
    pair = tiered(module)
    params = init_params(sizes, random.Random(cfg.seed + 1))
    batch = make_synthetic(cfg)[:cfg.batch_size]
    check(pair, step.name, _weight_args(params) + _batch_tensors(batch) + (cfg.lam, cfg.lr))


def test_lowered_code_leaves_no_cyclic_garbage():
    # the generated def's globals hold every constant it names, and not
    # the def itself: a lowered function, and a module lowered by 300 DAN
    # steps, are freed by reference counting alone
    cfg = DANConfig()
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    data = make_synthetic(cfg)
    gc.collect()
    gc.disable()
    try:
        module = parse_ir(ANALYTIC_SRC)
        while module.get("prod").tier.code is None:
            eval_function(module, "prod", (2.0, 3.0))
        del module
        assert gc.collect() == 0
        module, params = Module(), init_params(sizes, random.Random(cfg.seed + 1))
        for k in range(300):
            s = k % (len(data) // cfg.batch_size)
            params, _ = dan_step(module, params, data[s * cfg.batch_size:][:cfg.batch_size], cfg)
        assert module.get(f"dan_minibatch_step_{cfg.batch_size}").tier.code is not None
        del module, params
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("via", ["call", "fused_map"])
def test_hot_recursion_is_the_walkers_located_error(via):
    # the steps taken before the stack runs out are not compared: where
    # Python raises RecursionError can differ by a level
    lowered, walked = tiered(parse_ir(RECURSIVE_SRC))
    want = (f"{via}_self", "entry", 0, "maximum recursion depth exceeded")
    assert outcome(walked, f"{via}_self", (1.0,))[:2] == ("error", want)
    assert outcome(lowered, f"{via}_self", (1.0,))[:2] == ("error", want)


DEPTH_SRC = """
func @depth(%n: i64) -> i64 {
^entry:
  %z = const i64 0
  %more = gt %n, %z
  br %more, ^rec(), ^done()
^rec:
  %one = const i64 1
  %m = sub %n, %one
  %r = call %m {fn = @depth}
  %s = add %r, %one
  jmp ^out(%s)
^done:
  jmp ^out(%z)
^out(%v: i64):
  ret %v
}

func @fdepth(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %more = gt %x, %z
  br %more, ^rec(), ^done()
^rec:
  %one = const f64 1.0
  %m = sub %x, %one
  %r = fused_map %m {fn = @fdepth}
  %s = add %r, %one
  jmp ^out(%s)
^done:
  jmp ^out(%z)
^out(%v: f64):
  ret %v
}
"""


@pytest.mark.parametrize("name, frames, share, arg", [("depth", 2, 0.8, int),
                                                      ("fdepth", 5, 0.9, float)])
def test_lowered_recursion_reaches_the_walkers_depth(name, frames, share, arg):
    # the walker takes `frames` Python frames a level of recursion, and so
    # does lowered code; one frame more would stop it at 2/3 or 5/6 the depth
    depth, f = 0, sys._getframe()
    while f is not None:
        depth, f = depth + 1, f.f_back
    n = arg(int((sys.getrecursionlimit() - depth) / frames * share))
    lowered, walked = tiered(parse_ir(DEPTH_SRC))
    want = outcome(walked, name, (n,))
    assert want[:2] == ("ok", [dump(n)])
    assert outcome(lowered, name, (n,)) == want


def test_walker_lowers_a_hot_function_once():
    # heat starts at LOWER_AFTER x (1 instruction + 1 block), and each
    # call of @prod walks 2 dispatches
    module = parse_ir(ANALYTIC_SRC)
    fn = module.get("prod")
    for _ in range(LOWER_AFTER - 1):
        eval_function(module, "prod", (2.0, 3.0))
    assert fn.tier.code is None
    eval_function(module, "prod", (2.0, 3.0))
    code = fn.tier.code
    assert code is not None
    assert eval_function(module, "prod", (2.0, 3.0)) == (6.0,)
    assert eval_function(module, "prod", (2, 3)) == (6,)
    assert fn.tier.code is code


def test_structurize_rejected_function_never_lowers():
    module = parse_ir("""
func @two_rets(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  br %c, ^a(), ^b()
^a:
  ret %x
^b:
  ret %z
}
""")
    for _ in range(4 * LOWER_AFTER):
        assert eval_function(module, "two_rets", (1.5,)) == (1.5,)
    assert module.get("two_rets").tier.code is None
    assert module.get("two_rets").tier.heat == math.inf


def test_copies_start_cold():
    module = parse_ir(ANALYTIC_SRC)
    while module.get("prod").tier.code is None:
        eval_function(module, "prod", (2.0, 3.0))
    copied = copy.deepcopy(module)
    assert copied.get("prod").tier.code is None
    assert dataclasses.replace(module.get("prod")).tier.code is None
    copied.get("prod").blocks[0].body[0].op = "add"
    assert eval_function(copied, "prod", (2.0, 3.0)) == (5.0,)
    assert module.get("prod").tier.code is not None
    assert eval_function(module, "prod", (2.0, 3.0)) == (6.0,)


def one_op(name: str, op: str, types: tuple, attrs: str, result: str) -> str:
    """@name: one op on its parameters, whose value it returns."""
    params = ", ".join(f"%x{i}: {ty}" for i, ty in enumerate(types))
    return (f"func @{name}({params}) -> {result} {{\n^entry:\n"
            f"  %y = {op} {', '.join(f'%x{i}' for i in range(len(types)))}{attrs}\n  ret %y\n}}\n")


T23, T21, T3 = "tensor<2x3xf64>", "tensor<2x1xf64>", "tensor<3xf64>"
# (op, operand types, attributes, result type): every raw template
RAW_CASES = [
    *[(op, tys, "", T23) for op in ("add", "sub", "mul", "div", "lt", "gt", "eq")
      for tys in ((T21, T3), (T23, "f64"), ("f64", T23))],
    *[(op, (T23,), "", T23) for op in ("neg", *T.SCALAR_UNARY)],
    *[("select", (T23, x, y), "", T23)
      for x, y in ((T23, T3), (T3, "f64"), ("f64", T21), ("f64", "f64"))],
    ("select", ("bool", T23, T23), "", T23),
    ("transpose", (T23,), "", "tensor<3x2xf64>"),
    ("transpose", ("tensor<2x1x3xf64>",), "", "tensor<2x3x1xf64>"),
    ("bcast", ("f64",), " {shape = [2, 3]}", T23),
    ("bcast", (T21,), " {shape = [2, 3]}", T23),
    ("reshape", (T23,), " {shape = [3, 2]}", "tensor<3x2xf64>"),
    ("matmul", (T23, "tensor<3x4xf64>"), "", "tensor<2x4xf64>"),
    ("matmul", ("tensor<2x2x3xf64>", "tensor<2x3x4xf64>"), "", "tensor<2x2x4xf64>"),
    ("reduce_sum", (T23,), " {axis = 0}", T3),
    ("reduce_sum", (T23,), " {axis = 1}", "tensor<2xf64>"),
    ("reduce_sum", (T23,), " {axis = all}", "f64"),
    ("reduce_sum", (T3,), " {axis = 0}", "f64"),
]


def test_raw_templates_match_walker():
    kinds = [tuple("tensor" if ty.startswith("tensor") else ty for ty in tys)
             for _, tys, _, _ in RAW_CASES]
    assert {(op, k) for op, by in TEMPLATES.items() if op not in _BOXED
            for k in by if k and "tensor" in k} <= {(c[0], k) for c, k in zip(RAW_CASES, kinds)}
    src = "".join(one_op(f"c{i}", *case) for i, case in enumerate(RAW_CASES))
    pair = tiered(parse_ir(src))
    rng = random.Random(20)
    nrng = np.random.default_rng(20)

    def draw(ty: str, positive: bool):
        if ty == "bool":
            return rng.random() < 0.5
        if ty == "f64":
            return rng.choice([2.5, -0.75, 1e-300, -3e7, math.nan]) if not positive else 2.5
        shape = tuple(int(d) for d in ty[7:-5].split("x"))
        vals = _spread(nrng, shape, not positive)
        return DenseTensor(np.abs(vals) + 0.5 if positive else vals)

    for i, (op, tys, _, result) in enumerate(RAW_CASES):
        source = pair[0].get(f"c{i}").tier.source
        assert "(m, k" not in source, op  # a template, not a kernel call
        assert source.count("_own(") == result.startswith("tensor"), op
        for positive in (False, True, True):
            check(pair, f"c{i}", tuple(draw(ty, positive) for ty in tys))
    # the faults: log of x <= 0 and division by a zero element, either sign
    t = DenseTensor.from_flat
    index = {(c[0], k): i for i, (c, k) in enumerate(zip(RAW_CASES, kinds))}
    faults = [(index["log", ("tensor",)], (t((2, 3), [1, 2, z, 4, 5, 6]),))
              for z in (0.0, -0.0, -1e-300, -math.inf)]
    faults += [(index["div", k], args) for z in (0.0, -0.0) for k, args in (
        (("tensor", "tensor"), (t((2, 1), [1, 2]), t((3,), [1, z, 3]))),
        (("tensor", "f64"), (t((2, 3), [1, 2, 3, 4, 5, 6]), z)),
        (("f64", "tensor"), (2.5, t((2, 3), [1, 2, 3, 4, z, 6]))))]
    for i, args in faults:
        assert check(pair, f"c{i}", args) is None


def test_select_takes_a_float_mask_as_nonzero_is_true():
    # the select kernel and its lowered template share T._where, which
    # reads a float mask as ``mask != 0.0`` does: NaN, +-inf and a
    # subnormal pick the first operand, +-0.0 the second
    mask = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1.0])
    a, b = np.arange(1.0, 8.0), -np.arange(1.0, 8.0)
    want = np.where(mask != 0.0, a, b).tobytes()
    assert T._where(mask, a, b).tobytes() == want
    assert T._where(mask, 9.5, b).tobytes() == np.where(mask != 0.0, 9.5, b).tobytes()
    T7 = "tensor<7xf64>"
    pair = tiered(parse_ir(one_op("sel", "select", (T7, T7, T7), "", T7)))
    (got,) = check(pair, "sel", tuple(DenseTensor(v) for v in (mask, a, b)))
    assert got.data.tobytes() == want


def test_transposed_fold_is_the_walkers():
    # reduce_sum folds 33 rows in turn; numpy's add.reduce on the
    # transposed view would sum each column pairwise, which differs here
    pair = tiered(parse_ir("""
func @tsum(%x: tensor<9x33xf64>) -> (tensor<33x9xf64>, tensor<9xf64>) {
^entry:
  %t = transpose %x
  %s = reduce_sum %t {axis = 0}
  ret %t, %s
}
"""))
    x = _spread(np.random.default_rng(933), (9, 33), False)
    out = check(pair, "tsum", (DenseTensor(x),))
    assert np.add.reduce(x.T, 0, initial=-0.0).tobytes() != out[1].data.tobytes()


def test_broadcast_fold_is_the_walkers():
    pair = tiered(parse_ir("""
func @bsum(%x: tensor<33x1xf64>, %y: f64) -> (f64, f64) {
^entry:
  %b = bcast %x {shape = [3, 33, 2]}
  %s = reduce_sum %b {axis = all}
  %c = bcast %y {shape = [9, 9]}
  %u = reduce_sum %c {axis = all}
  ret %s, %u
}
"""))
    rng = np.random.default_rng(332)
    for y in (0.1, -0.0, 1e300):
        check(pair, "bsum", (DenseTensor(_spread(rng, (33, 1), True)), y))


def test_pushed_tensor_is_also_read_raw():
    pair = tiered(parse_ir("""
func @push_raw(%x: tensor<2x3xf64>) -> (tensor<2x3xf64>, tape) {
^entry:
  %t0 = tape_new
  %y = mul %x, %x
  %t1 = tape_push %t0, %y
  %z = add %y, %x
  %w = sub %z, %y
  ret %w, %t1
}
"""))
    # %y escapes to the trace and %w to the caller; %z stays an array
    assert pair[0].get("push_raw").tier.source.count("_own(") == 2
    rng = np.random.default_rng(23)
    for _ in range(3):
        out = check(pair, "push_raw", (DenseTensor(_spread(rng, (2, 3), True)),))
        assert out[1].top.data.flags.c_contiguous and not out[1].top.data.flags.writeable


def test_tensor_crosses_a_loop_edge():
    pair = tiered(parse_ir("""
func @loop_acc(%x: tensor<2x3xf64>, %n: i64) -> tensor<2x3xf64> {
^entry:
  %i0 = const i64 0
  %s0 = transpose %x
  %a0 = transpose %s0
  jmp ^head(%i0, %a0)
^head(%i: i64, %acc: tensor<2x3xf64>):
  %more = lt %i, %n
  br %more, ^body(), ^exit(%acc)
^body:
  %sq = mul %acc, %x
  %acc2 = add %sq, %x
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %acc2)
^exit(%r: tensor<2x3xf64>):
  ret %r
}
"""))
    assert pair[0].get("loop_acc").tier.source.count("_own(") == 2  # %a0, %acc2
    x = DenseTensor(_spread(np.random.default_rng(6), (2, 3), True) * 1e-10)
    for n in (0, 1, 3):
        check(pair, "loop_acc", (x, n))


def test_lane_leading_matmul_is_the_walkers():
    module = parse_ir("""
func @mm(%a: tensor<2x9xf64>, %b: tensor<9x4xf64>) -> tensor<2x4xf64> {
^entry:
  %c = matmul %a, %b
  %d = tanh %c
  ret %d
}
""")
    fn = vectorize(module, "mm", 3)
    types = structurize(fn, module).types
    assert [types[ins.result].shape for b in fn.blocks for ins in b.body
            if ins.op == "matmul"] == [(3, 2, 4)]
    pair = tiered(module)
    rng = np.random.default_rng(3)
    for _ in range(3):
        lanes = [(DenseTensor(_spread(rng, (2, 9), True)), DenseTensor(_spread(rng, (9, 4), True)))
                 for _ in range(3)]
        args = tuple(stack_lanes(ty, [la[i] for la in lanes]) for i, (_, ty) in
                     enumerate(module.get("mm").params))
        check(pair, fn.name, args)


def test_lowered_dan_wraps_only_escaping_tensors():
    cfg = DANConfig()
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    module = Module()
    loss = build_loss_ir(module, sizes, cfg.batch_size)
    augment(module, loss.name)
    lowered, walked = tiered(module)
    wraps = []
    for name in (f"{loss.name}__aug", f"{loss.name}__pb"):
        fn = lowered.get(name)
        types = structurize(fn, module).types
        body = [ins for b in fn.blocks for ins in b.body]
        assert all(ins.op in TEMPLATES for ins in body
                   if any(types[o].is_tensor for o in ins.operands))
        # tensors an op makes, and values the trace or the caller takes
        made = {ins.result for ins in body
                if types[ins.result].is_tensor and ins.op not in ("const", "tape_top")}
        taken = {ins.operands[1] for ins in body if ins.op == "tape_push"}
        taken |= {v for b in fn.blocks for v in term_uses(b)}
        assert fn.tier.source.count("_own(") == len(made & taken)
        wraps.append(len(made & taken))
        assert walked.get(name).tier.source is None
        assert copy.deepcopy(fn).tier.source is None
    assert wraps == [28, 9]
