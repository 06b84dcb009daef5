import random
import warnings
from pathlib import Path

import pytest

from ssagrad import (ADError, BatchError, DenseTensor, EvalError, Module, batched_grad,
                     build_grad_function, eval_function, finite_diff, generate_suite, grad,
                     parse_ir, stack_lanes, trace_grad, unstack_lanes, vectorize, verify)
from ssagrad.cli import FD_TOL, TAPE_TOL
from ssagrad.ir import BOOL, F64, I64, print_function, tensor_type
from ssagrad.progen import sample_inputs

from conftest import bits, max_rel


def run_lanes(module, name, lanes, per_lane_args):
    fn = module.get(name)
    bfn = vectorize(module, name, lanes)
    stacked = tuple(
        stack_lanes(ty, [la[i] for la in per_lane_args])
        for i, (_, ty) in enumerate(fn.params)
    )
    out = eval_function(module, bfn.name, stacked)
    return [
        unstack_lanes(ty, out[i], lanes) for i, ty in enumerate(fn.results)
    ]


def test_divergent_branch_lanes(analytic):
    lanes = [(-1.0,), (2.0,), (-3.0,)]
    (col,) = run_lanes(analytic, "absval", 3, lanes)
    assert col == [1.0, 2.0, 3.0]


def test_per_lane_trip_counts(analytic):
    lanes = [(2.0, 0), (2.0, 3), (2.0, 8)]
    (col,) = run_lanes(analytic, "powloop", 3, lanes)
    assert col == [1.0, 8.0, 256.0]


def test_single_lane_degenerate(analytic):
    (col,) = run_lanes(analytic, "cube", 1, [(1.5,)])
    assert col == [eval_function(analytic, "cube", (1.5,))[0]]


def test_lanes_match_map_exactly(analytic):
    # tolerance 0: the batched compiled code must reproduce the scalar
    # interpreter bit for bit
    rng = random.Random(3)
    for name in ("prod", "cube", "absval", "callin"):
        fn = analytic.get(name)
        for lanes in (1, 3, 8):
            per = [
                tuple(rng.uniform(-2, 2) for _ in fn.params)
                for _ in range(lanes)
            ]
            cols = run_lanes(analytic, name, lanes, per)
            for i in range(lanes):
                want = eval_function(analytic, name, per[i])
                assert tuple(col[i] for col in cols) == want


def test_tensor_args_batch(analytic):
    rng = random.Random(4)
    per = []
    for _ in range(3):
        w = DenseTensor.from_flat((2, 3), [rng.uniform(-1, 1) for _ in range(6)])
        v = DenseTensor.from_flat((3, 1), [rng.uniform(-1, 1) for _ in range(3)])
        per.append((w, v))
    (col,) = run_lanes(analytic, "net", 3, per)
    for i in range(3):
        assert col[i] == eval_function(analytic, "net", per[i])[0]


def test_vectorize_caches(analytic):
    a = vectorize(analytic, "prod", 3)
    b = vectorize(analytic, "prod", 3)
    assert a is b
    c = vectorize(analytic, "prod", 8)
    assert c is not a


def test_vectorized_module_verifies(analytic):
    for name in ("prod", "cube", "absval", "powloop", "net"):
        for lanes in (1, 3, 8):
            vectorize(analytic, name, lanes)
    assert verify(analytic) == []


def test_stack_unstack_round_trip():
    vals = [1.5, -2.0, 0.25]
    s = stack_lanes(F64, vals)
    assert s.shape == (3,)
    assert unstack_lanes(F64, s, 3) == vals

    bvals = [True, False, True]
    sb = stack_lanes(BOOL, bvals)
    assert unstack_lanes(BOOL, sb, 3) == bvals

    ivals = [4, 0, -2]
    si = stack_lanes(I64, ivals)
    back = unstack_lanes(I64, si, 3)
    assert back == ivals and all(isinstance(v, int) for v in back)

    ty = tensor_type(2)
    ts = [DenseTensor.from_flat((2,), [i, i + 1]) for i in range(3)]
    st = stack_lanes(ty, ts)
    assert st.shape == (3, 2)
    assert [t.flat() for t in unstack_lanes(ty, st, 3)] == [t.flat() for t in ts]


@pytest.mark.parametrize("ty", [F64, BOOL, I64, tensor_type(2)], ids=str)
def test_stack_lanes_of_no_lanes_is_refused(ty):
    with pytest.raises(ValueError, match="^stack of nothing$"):
        stack_lanes(ty, [])


def test_batched_grad_at_one_lane_is_grad(corpus):
    # metamorphic: one lane of the batched adjoint is the scalar adjoint, bit for bit
    module, suite = corpus
    for name, inputs in suite[:40]:
        fn = module.get(name)
        for args in inputs:
            stacked = tuple(stack_lanes(ty, [a]) for (_, ty), a in zip(fn.params, args))
            bg = batched_grad(module, name, 1, stacked, (stack_lanes(F64, [1.0]),))
            g = grad(module, name, args)
            assert bg.keys() == g.keys()
            for vid, ty in fn.params:
                if vid in g:
                    assert bits(unstack_lanes(ty, bg[vid], 1)[0]) == bits(g[vid]), (name, args)


def test_batched_grad_matches_per_sample(analytic):
    rng = random.Random(5)
    for name in ("prod", "cube", "absval"):
        fn = analytic.get(name)
        lanes = 4
        per = [
            tuple(rng.uniform(-2, 2) for _ in fn.params) for _ in range(lanes)
        ]
        stacked = tuple(
            stack_lanes(ty, [la[i] for la in per])
            for i, (_, ty) in enumerate(fn.params)
        )
        seeds = (stack_lanes(F64, [1.0] * lanes),)
        bg = batched_grad(analytic, name, lanes, stacked, seeds)
        for i in range(lanes):
            g = grad(analytic, name, per[i])
            for vid in g:
                got = unstack_lanes(F64, bg[vid], lanes)[i]
                assert max_rel(got, g[vid]) < 1e-12


SCALAR_MAP = """
func @g(%x: f64, %y: f64) -> f64 {
^entry:
  %p = mul %x, %y
  %e = exp %p
  %r = add %e, %x
  ret %r
}

func @h(%a: f64, %b: f64) -> f64 {
^entry:
  %m = fused_map %a, %b {fn = @g}
  %q = mul %m, %a
  ret %q
}
"""


@pytest.mark.parametrize("entry,lanes", [("fused", 4), ("fused", 64), ("h", 1), ("h", 4)])
def test_batched_grad_of_fused_map_is_per_lane_grad(entry, lanes):
    # the derivative pack's rows come out first; they move behind the lane axis,
    # over tensor lanes (@fused) and f64 lanes (@h) alike
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "fused.ssair").read_text()
    text += SCALAR_MAP
    m = parse_ir(text)
    fn = m.get(entry)
    rng = random.Random(lanes)
    per = [sample_inputs(fn, rng) for _ in range(lanes)]
    stacked = tuple(stack_lanes(ty, [la[i] for la in per]) for i, (_, ty) in enumerate(fn.params))
    bg = batched_grad(m, entry, lanes, stacked, (stack_lanes(F64, [1.0] * lanes),))
    for i, args in enumerate(per):
        g = grad(parse_ir(text), entry, args)
        for vid, ty in fn.params:
            assert bits(unstack_lanes(ty, bg[vid], lanes)[i]) == bits(g[vid])


def test_batched_grad_divergent_trips(analytic):
    lanes = [(1.1, 1), (1.1, 4), (1.1, 8)]
    stacked = (stack_lanes(F64, [la[0] for la in lanes]),
               stack_lanes(I64, [la[1] for la in lanes]))
    seeds = (stack_lanes(F64, [1.0, 1.0, 1.0]),)
    bg = batched_grad(analytic, "powloop", 3, stacked, seeds)
    per = unstack_lanes(F64, bg[0], 3)
    for i, (x, n) in enumerate(lanes):
        assert max_rel(per[i], n * x ** (n - 1)) < 1e-12


def test_batched_grad_step_limit_zero_is_exhausted_at_once(analytic):
    # a limit of 0 is a limit, not "use the default"
    with pytest.raises(EvalError) as scalar:
        grad(analytic, "prod", (1.0, 2.0), step_limit=0)
    lanes = stack_lanes(F64, [1.0, 2.0])
    with pytest.raises(EvalError) as batched:
        batched_grad(analytic, "prod", 2, (lanes, lanes), (lanes,), step_limit=0)
    assert str(scalar.value) == "@prod__aug ^entry instr 0: step limit exhausted"
    assert str(batched.value) == str(scalar.value).replace("__aug", "__aug__batched_B2")


def test_batched_grad_at_64_lanes_is_per_lane_grad(corpus):
    # criterion 5 stops at 8 lanes; a slice of the corpus at 64, where
    # lanes spread over many trace positions
    module, suite = corpus
    rng = random.Random(64)
    divergent = 0
    for name, inputs in suite[:20]:
        fn = module.get(name)
        pick = [rng.randrange(len(inputs)) for _ in range(64)]
        divergent += len({tuple(a for a in inputs[j] if isinstance(a, int)) for j in pick}) > 1
        stacked = tuple(stack_lanes(ty, [inputs[j][i] for j in pick])
                        for i, (_, ty) in enumerate(fn.params))
        bg = batched_grad(module, name, 64, stacked, (stack_lanes(F64, [1.0] * 64),))
        want = {j: grad(module, name, inputs[j], (1.0,)) for j in set(pick)}
        ptype = dict(fn.params)
        assert set(bg) == set(want[pick[0]])
        for vid, col in bg.items():
            got = unstack_lanes(ptype[vid], col, 64)
            assert [bits(v) for v in got] == [bits(want[j][vid]) for j in pick]
    assert divergent >= 5


def test_batched_second_order_is_per_lane_second_order():
    # batched_grad of @f__grad pushes onto batched cotangent traces, and
    # its selects merge traces of two tables; each lane's second-order
    # gradient is per-lane grad's, bit for bit
    module = Module()
    entries = 0
    for name, inputs in generate_suite(module, random.Random(7), 40, inputs_per=8):
        fn = build_grad_function(module, name)
        stacked = tuple(stack_lanes(ty, [a[i] for a in inputs])
                        for i, (_, ty) in enumerate(fn.params))
        bg = batched_grad(module, fn.name, 8, stacked, (stack_lanes(F64, [1.0] * 8),))
        per = [grad(module, fn.name, args, (1.0,)) for args in inputs]
        ptype = dict(fn.params)
        assert set(bg) == set(per[0])
        for vid, col in bg.items():
            got = unstack_lanes(ptype[vid], col, 8)
            assert [bits(v) for v in got] == [bits(g[vid]) for g in per], name
            entries += len(got)
    assert entries == 920


def test_lane_count_positive(analytic):
    with pytest.raises(BatchError):
        vectorize(analytic, "prod", 0)


def test_rank3_matmul_is_not_batched():
    # a rank-3 matmul already carries a lane axis; batching it would need rank 4
    m = parse_ir("""
func @f(%a: tensor<2x2x3xf64>, %b: tensor<2x3x2xf64>) -> tensor<2x2x2xf64> {
^entry:
  %r = matmul %a, %b
  ret %r
}
""")
    with pytest.raises(BatchError, match="rank-3 matmul is already lane-shaped"):
        vectorize(m, "f", 2)


def test_a_batched_trace_is_not_batched_again():
    # a select over tapes<2> takes a (2,) mask, which batching would make
    # (3, 2); a trace that is already per lane is refused where it is born
    m = parse_ir("""
func @f(%x: f64) -> f64 {
^entry:
  %t = tape_new {lanes = 2}
  %r = const tensor<2xf64> [1.0, 2.0]
  %m = const tensor<2xf64> [1.0, 0.0]
  %mx = mul %m, %x
  %t1 = tape_push %t, %r
  %t2 = select %mx, %t1, %t
  %v = tape_top %t2 {ty = tensor<2xf64>}
  %s = reduce_sum %v {axis = all}
  %y = add %s, %x
  ret %y
}
""")
    with pytest.raises(BatchError, match=r"cannot batch a value of type tapes<2>"):
        vectorize(m, "f", 3)


def test_matmul_with_a_uniform_operand_on_either_side():
    # %w and %v are uniform: each is copied out to every lane before its
    # matmul, %w on the right and %v on the left
    m = parse_ir("""
func @mm(%x: tensor<2x3xf64>) -> tensor<2x2xf64> {
^entry:
  %w = const tensor<3x2xf64> [0.5, -1.0, 2.0, 0.25, -0.75, 1.5]
  %a = matmul %x, %w
  %v = const tensor<2x2xf64> [1.25, -0.5, 0.3, 2.0]
  %r = matmul %v, %a
  ret %r
}
""")
    per = [(DenseTensor.from_flat((2, 3), v),) for v in _T23]
    (col,) = run_lanes(m, "mm", 3, per)
    for got, args in zip(col, per):
        assert bits(got) == bits(eval_function(m, "mm", args)[0])


def test_uniform_values_that_are_not_constants_leave_as_rows():
    # %lt, %gt and %k are computed from constants: uniform, but no
    # constant's rows, so each is copied out to every lane, the bools by
    # a select on the pinned rows and the i64 by itof and bcast
    m = parse_ir("""
func @flags(%x: f64) -> (f64, bool, bool, i64) {
^entry:
  %a = const f64 1.0
  %b = const f64 2.0
  %lt = lt %a, %b
  %gt = gt %a, %b
  %i = const i64 3
  %k = add %i, %i
  ret %x, %lt, %gt, %k
}
""")
    per = [(-1.5,), (0.0,), (2.5,)]
    cols = run_lanes(m, "flags", 3, per)
    assert [tuple(col[i] for col in cols) for i in range(3)] == [
        eval_function(m, "flags", args) for args in per]
    assert cols[1:] == [[True] * 3, [False] * 3, [6] * 3]


def test_constant_rows_keep_their_bits_and_their_fault():
    # a constant's rows are shared by value, yet 0.0 and -0.0 get rows of
    # their own; an i64 beyond the f64 range is converted when the
    # batched code runs, not when it is built
    m = parse_ir(f"""
func @zeros(%x: f64) -> (f64, f64, f64) {{
^entry:
  %p = const f64 0.0
  %n = const f64 -0.0
  ret %x, %p, %n
}}

func @huge(%x: f64) -> (f64, i64) {{
^entry:
  %k = const i64 {10 ** 400}
  ret %x, %k
}}
""")
    cols = run_lanes(m, "zeros", 2, [(1.0,), (2.0,)])
    assert [[bits(v) for v in col] for col in cols[1:]] == [[bits(0.0)] * 2, [bits(-0.0)] * 2]
    fn = vectorize(m, "huge", 2)
    with pytest.raises(EvalError, match="int too large to convert to float"):
        eval_function(m, fn.name, (stack_lanes(F64, [1.0, 2.0]),))


def test_a_uniform_mask_selects_between_arms_of_two_lane_shapes():
    # %m is uniform, so the select is no lane-wise one: the f64 arm is
    # lifted to the tensor arm's lane shape before it
    m = parse_ir("""
func @pick(%x: f64, %v: tensor<3xf64>) -> tensor<3xf64> {
^entry:
  %m = const tensor<3xf64> [1.0, 0.0, 1.0]
  %y = select %m, %x, %v
  ret %y
}
""")
    t = lambda *v: DenseTensor.from_flat((3,), v)
    per = [(0.5, t(1.0, 2.0, 3.0)), (-2.0, t(-0.0, 4.0, -1.0)), (7.0, t(0.25, -3.0, 6.0))]
    (col,) = run_lanes(m, "pick", 3, per)
    for got, args in zip(col, per):
        assert bits(got) == bits(eval_function(m, "pick", args)[0])
    assert [c.flat() for c in col] == [[0.5, 2.0, 0.5], [-2.0, 4.0, -2.0], [7.0, -3.0, 7.0]]


def test_batched_type_mapping():
    from ssagrad.spmd_batch import batched_type
    from ssagrad.ir import TAPE, tapes_type
    assert batched_type(F64, 3) == tensor_type(3)
    assert batched_type(tensor_type(2), 3) == tensor_type(3, 2)
    assert batched_type(TAPE, 3) == tapes_type(3)
    with pytest.raises(BatchError):
        batched_type(tapes_type(2), 3)


# ------------------------------------- batching paths, lane by lane exact

BATCH_SRC = """
func @uniform_branch(%x: f64) -> f64 {
^entry:
  %one = const f64 1.0
  %two = const f64 2.0
  %c = lt %one, %two
  br %c, ^a(), ^b()
^a:
  jmp ^j(%one)
^b:
  %y = mul %x, %x
  jmp ^j(%y)
^j(%r: f64):
  %o = mul %r, %x
  ret %o
}

func @uniform_select(%t: tensor<3xf64>) -> f64 {
^entry:
  %one = const f64 1.0
  %two = const f64 2.0
  %c = gt %one, %two
  %k = const tensor<3xf64> [0.5, -1.0, 2.0]
  %s = select %c, %k, %t
  %u = mul %s, %t
  %r = reduce_sum %u {axis = all}
  ret %r
}

func @stack_unstack(%a: tensor<3xf64>, %b: tensor<3xf64>) -> f64 {
^entry:
  %k = const tensor<3xf64> [0.5, -1.0, 2.0]
  %s = stack %a, %b, %k {axis = 1}
  %u = unstack %s {index = 1, axis = 1}
  %w = unstack %s {index = 2, axis = 0}
  %p = mul %u, %a
  %q = reduce_sum %p {axis = all}
  %z = reduce_sum %w {axis = all}
  %r = mul %q, %z
  ret %r
}

func @reduce_to(%a: tensor<2x3xf64>) -> f64 {
^entry:
  %c = reduce_sum %a {axis = 1}
  %r1 = reshape %c {shape = [2, 1]}
  %r2 = reduce_sum %a {axis = 0}
  %p = mul %r1, %r2
  %r = reduce_sum %p {axis = all}
  ret %r
}

func @reduce_tail(%a: tensor<2x3xf64>) -> f64 {
^entry:
  %t = reduce_sum %a {axis = 1}
  %s = tanh %t
  %u = reduce_sum %s {axis = all}
  %w = reduce_sum %a {axis = all}
  %r = mul %u, %w
  ret %r
}

func @exit_reads_header(%x: f64, %n: i64) -> f64 {
^entry:
  %i0 = const i64 0
  jmp ^head(%i0, %x)
^head(%i: i64, %acc: f64):
  %h = tanh %acc
  %more = lt %i, %n
  br %more, ^body(), ^exit(%h)
^body:
  %a2 = mul %acc, %x
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %a2)
^exit(%r: f64):
  ret %r
}

func @const_trip(%x: f64) -> f64 {
^entry:
  %i0 = const i64 0
  %n = const i64 3
  %z = const f64 0.0
  jmp ^head(%i0, %x)
^head(%i: i64, %acc: f64):
  %more = lt %i, %n
  br %more, ^body(), ^exit(%acc)
^body:
  %pos = gt %acc, %z
  br %pos, ^a(), ^b()
^a:
  %s = tanh %acc
  jmp ^j(%s)
^b:
  %m = mul %acc, %x
  jmp ^j(%m)
^j(%v: f64):
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %v)
^exit(%r: f64):
  ret %r
}

func @lim(%x: f64) -> f64 {
^entry:
  %two = const f64 2.0
  %t = mul %two, %x
  %l = add %t, %two
  ret %l
}

func @header_call(%x: f64) -> f64 {
^entry:
  %i0 = const f64 0.0
  %a0 = const f64 1.0
  jmp ^head(%i0, %a0)
^head(%i: f64, %acc: f64):
  %l = call %x {fn = @lim}
  %k = lt %i, %l
  br %k, ^body(), ^exit(%acc)
^body:
  %a2 = mul %acc, %x
  %one = const f64 1.0
  %i2 = add %i, %one
  jmp ^head(%i2, %a2)
^exit(%r: f64):
  ret %r
}
"""

# lanes per function; the trip counts of exit_reads_header and
# header_call differ per lane
_T3 = [(0.3, -0.5, 0.8), (1.1, 0.2, -0.4), (-0.7, 0.9, 0.1)]
_T23 = [(0.3, -0.5, 0.8, 1.1, 0.2, -0.4), (0.6, 0.1, -0.9, 1.2, -0.7, 0.4),
        (-0.2, 0.7, 0.5, -1.3, 0.8, 0.9)]
BATCH_LANES = {
    "uniform_branch": [(-1.5,), (0.25,), (2.0,)],
    "uniform_select": [(DenseTensor.from_flat((3,), v),) for v in _T3],
    "stack_unstack": [(DenseTensor.from_flat((3,), a), DenseTensor.from_flat((3,), b))
                      for a, b in zip(_T3, _T3[1:] + _T3[:1])],
    "reduce_to": [(DenseTensor.from_flat((2, 3), v),) for v in _T23],
    "reduce_tail": [(DenseTensor.from_flat((2, 3), v),) for v in _T23],
    "exit_reads_header": [(0.9, 0), (1.1, 2), (-0.8, 5)],
    "const_trip": [(-0.6,), (0.4,), (1.3,)],
    "header_call": [(1.1,), (0.5,)],
}


def assert_lanes_exact(module, name, per_lane):
    """vectorize and batched_grad give, in every lane, the per-sample
    eval_function and grad results bit for bit.  A function that grad
    refuses, batched_grad refuses with the same ADError."""
    fn = module.get(name)
    lanes = len(per_lane)
    cols = run_lanes(module, name, lanes, per_lane)
    for i, args in enumerate(per_lane):
        want = eval_function(module, name, args)
        assert [bits(col[i]) for col in cols] == [bits(w) for w in want]

    stacked = tuple(stack_lanes(ty, [la[k] for la in per_lane])
                    for k, (_, ty) in enumerate(fn.params))
    seeds = (stack_lanes(F64, [1.0] * lanes),)
    try:
        per = [grad(module, name, args) for args in per_lane]
    except ADError as e:
        with pytest.raises(ADError, match=str(e)):
            batched_grad(module, name, lanes, stacked, seeds)
        return
    bg = batched_grad(module, name, lanes, stacked, seeds)
    for pv, ty in fn.params:
        if ty.is_differentiable:
            col = unstack_lanes(ty, bg[pv], lanes)
            assert [bits(c) for c in col] == [bits(g[pv]) for g in per]


@pytest.mark.parametrize("name", BATCH_LANES)
def test_batching_paths_lane_exact(name):
    m = parse_ir(BATCH_SRC)
    assert_lanes_exact(m, name, BATCH_LANES[name])


def test_uniform_tensor_divisor_is_guarded_in_a_lane_branch():
    # the divisor is a constant, so it is uniform, but the div runs under
    # the branch's lane mask: the guard swaps it for ones once no lane is
    # live, and every live lane still divides by the constant
    m = parse_ir("""
func @scaled(%x: tensor<3xf64>, %s: f64) -> f64 {
^entry:
  %d = const tensor<3xf64> [2.0, -4.0, 0.5]
  %z = const f64 0.0
  %pos = gt %s, %z
  br %pos, ^a(), ^b()
^a:
  %q = div %x, %d
  %r = reduce_sum %q {axis = all}
  jmp ^join(%r)
^b:
  %w = mul %s, %s
  jmp ^join(%w)
^join(%v: f64):
  %y = mul %v, %s
  ret %y
}
""")
    t = lambda *v: DenseTensor.from_flat((3,), v)
    per_lane = [(t(0.3, -0.5, 0.8), 0.7), (t(1.1, 0.2, -0.4), -0.6), (t(-0.9, 0.4, 1.3), 1.2)]
    assert_lanes_exact(m, "scaled", per_lane)
    for name in ("scaled", "scaled__aug"):
        text = print_function(m.get(f"{name}__batched_B3"))
        assert "%alive = gt %nlive" in text
        assert "%safe = const tensor<3xf64> [1.0, 1.0, 1.0]" in text


def test_exit_reading_header_gradients_agree():
    # the loop's exit reads a value its header computes
    m = parse_ir(BATCH_SRC)
    for args in BATCH_LANES["exit_reads_header"]:
        g = grad(m, "exit_reads_header", args)
        t = trace_grad(m, "exit_reads_header", args, (1.0,))
        fd = finite_diff(m, "exit_reads_header", args, (1.0,))
        assert g.keys() == t.keys() == fd.keys()
        assert all(max_rel(g[v], t[v]) <= TAPE_TOL for v in g)
        assert all(max_rel(g[v], fd[v]) <= FD_TOL for v in g)


@pytest.mark.parametrize("name", BATCH_LANES)
def test_augment_takes_vectorized_code(name):
    # grad of the batched function gives each lane its own gradient,
    # bit for bit, lane-varying loops included
    m = parse_ir(BATCH_SRC)
    per_lane = BATCH_LANES[name]
    fn, lanes = m.get(name), len(per_lane)
    stacked = tuple(stack_lanes(ty, [la[k] for la in per_lane])
                    for k, (_, ty) in enumerate(fn.params))
    bfn = vectorize(m, name, lanes)
    bg = grad(m, bfn.name, stacked, (stack_lanes(F64, [1.0] * lanes),))
    per = [grad(m, name, args) for args in per_lane]
    for (pv, ty), (bpv, _) in zip(fn.params, bfn.params):
        if ty.is_differentiable:
            col = unstack_lanes(ty, bg[bpv], lanes)
            assert [bits(c) for c in col] == [bits(g[pv]) for g in per]


# lanes leave the loop after different trips, so its exit %n is
# lane-dependent although every lane binds it to the uniform %k
LANE_EXIT_SRC = """
func @f(%x: f64) -> f64 {
^entry:
  %k = const i64 3
  jmp ^head(%x)
^head(%v: f64):
  %z = const f64 0.0
  %c = lt %v, %z
  br %c, ^body(), ^exit(%k)
^body:
  %one = const f64 1.0
  %w = add %v, %one
  jmp ^head(%w)
^exit(%n: i64):
  %nf = itof %n
  %r = add %nf, %v
  ret %r
}
"""


@pytest.mark.parametrize("lanes", [2, 3])
def test_a_lane_dependent_loop_has_lane_dependent_exits(lanes):
    m = parse_ir(LANE_EXIT_SRC)
    per_lane = [(-2.5,), (1.0,), (-0.5,)][:lanes]
    assert run_lanes(m, "f", lanes, per_lane)[0][:2] == [3.5, 4.0]
    assert_lanes_exact(m, "f", per_lane)


EXP_SRC = """
func @exp_either(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = lt %x, %z
  br %c, ^a(), ^b()
^a:
  %e = exp %x
  jmp ^j(%e)
^b:
  %n = neg %x
  %f = exp %n
  jmp ^j(%f)
^j(%r: f64):
  ret %r
}
"""


def test_exp_overflow_in_the_untaken_arm():
    # batching runs both arms in every lane, so exp(1000) is computed
    # for the lanes that never take that arm
    m = parse_ir(EXP_SRC)
    per_lane = [(-1000.0,), (1000.0,), (0.5,)]
    assert [eval_function(m, "exp_either", a) for a in per_lane[:2]] == [(0.0,), (0.0,)]
    assert_lanes_exact(m, "exp_either", per_lane)


# ------------------------------- jumps into one-predecessor parameter blocks

RENAME_SRC = """
func @straight(%x: f64) -> f64 {
^entry:
  %a = mul %x, %x
  jmp ^b(%a, %x)
^b(%p: f64, %q: f64):
  %s = add %p, %q
  %t = tanh %s
  jmp ^c(%t)
^c(%r: f64):
  ret %r
}

func @arms(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = lt %x, %z
  jmp ^pick(%c, %x)
^pick(%cc: bool, %y: f64):
  br %cc, ^a(%y), ^b(%y, %z)
^a(%u: f64):
  %n = neg %u
  jmp ^a2(%n)
^a2(%v: f64):
  %w = mul %v, %u
  jmp ^join(%w)
^b(%s: f64, %k: f64):
  %e = sigmoid %s
  %f = add %e, %k
  jmp ^join(%f)
^join(%r: f64):
  %o = mul %r, %y
  ret %o
}

func @into_body(%x: f64, %n: i64) -> f64 {
^entry:
  %i0 = const i64 0
  jmp ^pre(%x, %n)
^pre(%x1: f64, %n1: i64):
  jmp ^head(%i0, %x1)
^head(%i: i64, %acc: f64):
  %more = lt %i, %n1
  br %more, ^body(%acc), ^exit(%acc)
^body(%a: f64):
  %t = tanh %a
  %m = mul %t, %x1
  jmp ^step(%m, %i)
^step(%v: f64, %j: i64):
  %one = const i64 1
  %i2 = add %j, %one
  jmp ^head(%i2, %v)
^exit(%r: f64):
  ret %r
}
"""

RENAME_LANES = {
    "straight": [(-1.5,), (0.25,), (2.0,)],
    "arms": [(-1.5,), (0.25,), (2.0,)],
    "into_body": [(0.9, 0), (1.1, 2), (-0.8, 5)],
}


@pytest.mark.parametrize("name", RENAME_LANES)
def test_one_predecessor_blocks_through_every_transform(name):
    m = parse_ir(RENAME_SRC)
    assert verify(m) == []
    for args in RENAME_LANES[name]:
        g = grad(m, name, args)
        t = trace_grad(m, name, args, (1.0,))
        assert g.keys() == t.keys()
        assert all(bits(g[v]) == bits(t[v]) for v in g)
    assert_lanes_exact(m, name, RENAME_LANES[name])
    assert verify(m) == []  # with the generated __aug, __pb and batched functions


NONFINITE_SRC = """
func @f(%x: f64) -> f64 {
^entry:
  %e = exp %x
  %n = sub %e, %e
  ret %n
}
"""


def test_nonfinite_lanes_raise_no_numpy_warning():
    # a lane computing inf - inf gives nan, as a plain run does, and
    # numpy's floating-point warnings stay off
    m = parse_ir(NONFINITE_SRC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = batched_grad(m, "f", 2, (stack_lanes(F64, [1000.0, 0.0]),),
                         (DenseTensor.from_flat((2,), [1.0, 1.0]),))
        (col,) = run_lanes(m, "f", 2, [(1000.0,), (0.0,)])
    assert [bits(v) for v in unstack_lanes(F64, g[m.get("f").params[0][0]], 2)] == \
        [bits(float("nan")), bits(0.0)]
    assert bits(col[0]) == bits(float("nan")) and col[1] == 0.0
