import math

import pytest

from ssagrad import (DenseTensor, Dual, EvalError, dual_eval, eval_function,
                     fused_map_with_partials, parse_ir, trace_eval)
from ssagrad.interp import DEFAULT_STEP_LIMIT


def test_straight_line(analytic):
    assert eval_function(analytic, "prod", (3.0, 2.0)) == (6.0,)


def test_loop(analytic):
    assert eval_function(analytic, "cube", (2.0,)) == (8.0,)
    assert eval_function(analytic, "powloop", (2.0, 5)) == (32.0,)
    assert eval_function(analytic, "powloop", (2.0, 0)) == (1.0,)


def test_branch(analytic):
    assert eval_function(analytic, "absval", (-4.5,)) == (4.5,)
    assert eval_function(analytic, "absval", (4.5,)) == (4.5,)


def test_call_inlines(analytic):
    assert eval_function(analytic, "callin", (3.0,)) == (81.0,)


def test_tensor_path(analytic):
    w = DenseTensor.from_flat((2, 3), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    v = DenseTensor.from_flat((3, 1), [1.0, 2.0, 3.0])
    (out,) = eval_function(analytic, "net", (w, v))
    h = [0.1 + 0.4 + 0.9, 0.4 + 1.0 + 1.8]
    assert out == pytest.approx(sum(math.tanh(x) for x in h), abs=1e-15)


def test_fused_map_primal(analytic):
    # gauss(a, c) = sigmoid(a * c), mapped over the lanes of x
    x = DenseTensor.from_flat((4,), [0.0, 1.0, -1.0, 2.0])
    (out,) = eval_function(analytic, "mapped", (x, 1.0))
    want = sum(1.0 / (1.0 + math.exp(-v)) for v in x.flat())
    assert out == pytest.approx(want, abs=1e-15)


def test_arity_checked(analytic):
    with pytest.raises(EvalError):
        eval_function(analytic, "prod", (3.0,))


def test_domain_error_wrapped():
    m = parse_ir("""
func @bad(%x: f64) -> f64 {
^entry:
  %l = log %x
  ret %l
}
""")
    with pytest.raises(EvalError, match="log"):
        eval_function(m, "bad", (-1.0,))


def test_div_by_zero():
    m = parse_ir("""
func @d(%x: f64, %y: f64) -> f64 {
^entry:
  %q = div %x, %y
  ret %q
}
""")
    with pytest.raises(EvalError, match="zero"):
        eval_function(m, "d", (1.0, 0.0))


def test_step_limit():
    m = parse_ir("""
func @spin(%n: i64) -> i64 {
^entry:
  %i0 = const i64 0
  jmp ^head(%i0)
^head(%i: i64):
  %going = lt %i, %n
  br %going, ^body(), ^out()
^body:
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2)
^out:
  ret %i
}
""")
    assert eval_function(m, "spin", (10,)) == (10,)
    with pytest.raises(EvalError, match="step limit"):
        eval_function(m, "spin", (10,), step_limit=5)


def test_select_scalar_and_tensor():
    m = parse_ir("""
func @pick(%c: bool, %a: f64, %b: f64) -> f64 {
^entry:
  %r = select %c, %a, %b
  ret %r
}

func @mask(%x: tensor<3xf64>) -> tensor<3xf64> {
^entry:
  %z = const f64 0.0
  %m = gt %x, %z
  %r = select %m, %x, %z
  ret %r
}
""")
    assert eval_function(m, "pick", (True, 1.0, 2.0)) == (1.0,)
    assert eval_function(m, "pick", (False, 1.0, 2.0)) == (2.0,)
    x = DenseTensor.from_flat((3,), [-1.0, 2.0, -3.0])
    (r,) = eval_function(m, "mask", (x,))
    assert r.flat() == [0.0, 2.0, 0.0]


def test_compare_on_tensor_gives_mask():
    m = parse_ir("""
func @cmp(%x: tensor<2xf64>, %y: tensor<2xf64>) -> tensor<2xf64> {
^entry:
  %r = lt %x, %y
  ret %r
}
""")
    a = DenseTensor.from_flat((2,), [1.0, 5.0])
    b = DenseTensor.from_flat((2,), [2.0, 4.0])
    (r,) = eval_function(m, "cmp", (a, b))
    assert r.flat() == [1.0, 0.0]


def test_i64_arithmetic():
    m = parse_ir("""
func @iadd(%a: i64, %b: i64) -> i64 {
^entry:
  %s = add %a, %b
  %two = const i64 2
  %p = mul %s, %two
  ret %p
}
""")
    assert eval_function(m, "iadd", (3, 4)) == (14,)


def test_multi_result():
    m = parse_ir("""
func @two(%x: f64) -> (f64, f64) {
^entry:
  %d = add %x, %x
  %s = mul %x, %x
  ret %d, %s
}
""")
    assert eval_function(m, "two", (3.0,)) == (6.0, 9.0)


FAULTS_SRC = """
func @lg(%x: f64) -> f64 {
^entry:
  %y = log %x
  ret %y
}

func @spin(%x: f64) -> f64 {
^entry:
  %i0 = const i64 0
  %n = const i64 1000
  jmp ^head(%i0)
^head(%i: i64):
  %going = lt %i, %n
  br %going, ^body(), ^out()
^body:
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2)
^out:
  ret %x
}

func @call_lg(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @lg}
  ret %y
}

func @fused_map_lg(%x: f64) -> f64 {
^entry:
  %y = fused_map %x {fn = @lg}
  ret %y
}

func @call_spin(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @spin}
  ret %y
}

func @fused_map_spin(%x: f64) -> f64 {
^entry:
  %y = fused_map %x {fn = @spin}
  ret %y
}
"""

# every entry point that runs IR, each on (module, name, x, step_limit)
RUNNERS = {
    "eval_function": lambda m, name, x, limit: eval_function(m, name, (x,), limit),
    "trace_eval": lambda m, name, x, limit: trace_eval(m, name, (x,), limit),
    "fused_map_with_partials":
        lambda m, name, x, limit: fused_map_with_partials(m, name, (x,), limit),
    "dual_eval": lambda m, name, x, limit: dual_eval(m, name, (Dual(x, (1.0,)),), limit),
}


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("via", ["call", "fused_map"])
@pytest.mark.parametrize("callee, x, limit, unknown_op, want", [
    ("lg", -1.0, DEFAULT_STEP_LIMIT, None,
     ("lg", "entry", 0, "log of non-positive value -1.0")),
    # 4 steps reach the loop, 5 per trip: the 51st step is trip 9's br
    ("spin", 1.0, 50, None, ("spin", "head", 1, "step limit exhausted")),
    ("lg", 2.0, DEFAULT_STEP_LIMIT, "frobnicate",
     ("lg", "entry", 0, "op 'frobnicate' has no evaluation rule")),
], ids=["log_domain", "step_limit", "unknown_op"])
def test_fault_location_same_on_every_path(runner, via, callee, x, limit, unknown_op, want):
    m = parse_ir(FAULTS_SRC)
    if unknown_op is not None:
        m.get(callee).blocks[0].body[0].op = unknown_op
    with pytest.raises(EvalError) as info:
        RUNNERS[runner](m, f"{via}_{callee}", x, limit)
    e = info.value
    assert (e.function, e.block, e.index, e.message) == want


UNBOUND_SRC = """
func @operand(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  br %c, ^a(), ^b()
^a:
  %y = mul %x, %x
  jmp ^join()
^b:
  jmp ^join()
^join:
  %w = add %y, %x
  ret %w
}

func @terminator(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  br %c, ^a(), ^b()
^a:
  %y = mul %x, %x
  jmp ^join()
^b:
  jmp ^join()
^join:
  %u = add %x, %x
  ret %y
}

func @h(%x: f64) -> f64 {
^entry:
  ret %x
}

func @calls_h(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @h}
  ret %y
}
"""


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("name, index", [("operand", 0), ("terminator", 1)])
def test_unbound_value_is_a_located_eval_error(runner, name, index):
    # unverified code: %y's definition does not dominate its read, and
    # x = -1 takes the path that skips it
    m = parse_ir(UNBOUND_SRC)
    with pytest.raises(EvalError) as info:
        RUNNERS[runner](m, name, -1.0, DEFAULT_STEP_LIMIT)
    e = info.value
    assert (e.function, e.block, e.index, e.message) == (
        name, "join", index, "%y has no value on this path")


@pytest.mark.parametrize("runner", ["eval_function", "trace_eval", "dual_eval"])
def test_kernel_key_error_keeps_its_message(runner):
    m = parse_ir(UNBOUND_SRC)
    del m.functions["h"]
    with pytest.raises(KeyError, match="no function @h in module"):
        RUNNERS[runner](m, "calls_h", 1.0, DEFAULT_STEP_LIMIT)
