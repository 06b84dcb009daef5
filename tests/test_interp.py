import math

import pytest

from ssagrad import (DenseTensor, Dual, EvalError, dual_eval, eval_function,
                     fused_map_with_partials, grad, parse_ir, trace_eval)
from ssagrad import interp
from ssagrad.forward_ad import pack_rows
from ssagrad.interp import DEFAULT_STEP_LIMIT
from ssagrad.progen import compare_margin


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
    "compare_margin": lambda m, name, x, limit: compare_margin(m, name, (x,), limit),
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


@pytest.mark.parametrize("runner", ["eval_function", "trace_eval", "compare_margin", "dual_eval"])
def test_kernel_key_error_keeps_its_message(runner):
    m = parse_ir(UNBOUND_SRC)
    del m.functions["h"]
    with pytest.raises(KeyError, match="no function @h in module"):
        RUNNERS[runner](m, "calls_h", 1.0, DEFAULT_STEP_LIMIT)


BAD_EDGE_SRC = """
func @unknown_target(%x: f64) -> f64 {
^entry:
  jmp ^b(%x)
^b(%y: f64):
  ret %y
}

func @extra_arg(%x: f64) -> f64 {
^entry:
  %z = const f64 1.0
  jmp ^b(%x, %z)
^b(%y: f64):
  ret %y
}
"""


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("name, index, message", [
    ("unknown_target", 0, "terminator targets unknown block ^nowhere"),
    ("extra_arg", 1, "edge to ^b passes 2 args for 1 params"),
], ids=["unknown_target", "extra_arg"])
def test_bad_edge_is_a_located_eval_error(runner, name, index, message):
    # unverified code; the parser rejects unknown targets, so that edit
    # is made on the IR
    m = parse_ir(BAD_EDGE_SRC)
    m.get("unknown_target").blocks[0].term.target = "nowhere"
    with pytest.raises(EvalError) as info:
        RUNNERS[runner](m, name, 3.0, DEFAULT_STEP_LIMIT)
    e = info.value
    assert (e.function, e.block, e.index, e.message) == (name, "entry", index, message)


RECURSIVE_SRC = """
func @call_self(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @call_self}
  ret %y
}

func @fused_map_self(%x: f64) -> f64 {
^entry:
  %y = fused_map %x {fn = @fused_map_self}
  ret %y
}
"""


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("via", ["call", "fused_map"])
def test_unbounded_recursion_is_a_located_eval_error(runner, via):
    m = parse_ir(RECURSIVE_SRC)
    with pytest.raises(EvalError) as info:
        RUNNERS[runner](m, f"{via}_self", 1.0, DEFAULT_STEP_LIMIT)
    e = info.value
    assert (e.function, e.block, e.index, e.message) == (
        f"{via}_self", "entry", 0, "maximum recursion depth exceeded")


MAP_FAULTS_SRC = """
func @lg_div(%x: f64) -> f64 {
^entry:
  %l = log %x
  %two = const f64 2.0
  %d = sub %x, %two
  %q = div %l, %d
  ret %q
}

func @three(%x: f64) -> f64 {
^entry:
  %a = mul %x, %x
  %b = add %a, %x
  ret %b
}

func @map_lg_div(%x: tensor<4xf64>) -> f64 {
^entry:
  %y = fused_map %x {fn = @lg_div}
  %s = reduce_sum %y {axis = all}
  ret %s
}

func @map_three(%x: tensor<64xf64>) -> f64 {
^entry:
  %y = fused_map %x {fn = @three}
  %s = reduce_sum %y {axis = all}
  ret %s
}

func @branchy(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %pos = gt %x, %z
  br %pos, ^a(), ^b()
^a:
  %one = const f64 1.0
  %u = add %x, %one
  %l = log %u
  jmp ^join(%l)
^b:
  %n = neg %x
  %e = exp %n
  jmp ^join(%e)
^join(%v: f64):
  ret %v
}

func @loop(%x: f64) -> f64 {
^entry:
  %i0 = const i64 0
  %n = const i64 3
  jmp ^head(%i0, %x)
^head(%i: i64, %acc: f64):
  %more = lt %i, %n
  br %more, ^body(), ^out()
^body:
  %a2 = mul %acc, %x
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %a2)
^out:
  ret %acc
}
"""

# each runner maps @body over a tensor x, directly or through @map_body
MAP_RUNNERS = {
    "eval_function": lambda m, body, x, limit: eval_function(m, f"map_{body}", (x,), limit),
    "trace_eval": lambda m, body, x, limit: trace_eval(m, f"map_{body}", (x,), limit),
    "compare_margin": lambda m, body, x, limit: compare_margin(m, f"map_{body}", (x,), limit),
    "fused_map_with_partials":
        lambda m, body, x, limit: fused_map_with_partials(m, body, (x,), limit),
    "grad": lambda m, body, x, limit: grad(m, f"map_{body}", (x,), None, limit),
}


def _eval_error(run) -> tuple:
    with pytest.raises(EvalError) as info:
        run()
    e = info.value
    return (e.function, e.block, e.index, e.message)


@pytest.mark.parametrize("runner", MAP_RUNNERS)
@pytest.mark.parametrize("body, x, limit", [
    # point 0 divides by zero at instr 3 before point 1 takes a log of
    # -1 at instr 0, which is where a run over whole rows stops first
    ("lg_div", DenseTensor.from_flat((4,), [2.0, -1.0, 3.0, 4.0]), DEFAULT_STEP_LIMIT),
    # the budget runs out partway through the map
    ("three", DenseTensor.from_flat((64,), [0.01 * i for i in range(64)]), 100),
], ids=["div_before_log", "step_limit"])
def test_fault_in_a_tensor_map_is_the_per_element_fault(runner, body, x, limit, monkeypatch):
    m = parse_ir(MAP_FAULTS_SRC)
    got = _eval_error(lambda: MAP_RUNNERS[runner](m, body, x, limit))
    assert got[0] == body
    if body == "lg_div":
        assert got == ("lg_div", "entry", 3, "division by zero")
    monkeypatch.setattr(interp, "_rows_exact", lambda module, fn: False)
    assert _eval_error(lambda: MAP_RUNNERS[runner](m, body, x, limit)) == got


def test_tensor_map_charges_its_steps_once_per_element():
    m = parse_ir(MAP_FAULTS_SRC)
    x = DenseTensor.from_flat((64,), [0.01 * i for i in range(64)])
    # three steps at each of 64 points
    fused_map_with_partials(m, "three", (x,), 192)
    with pytest.raises(EvalError) as info:
        fused_map_with_partials(m, "three", (x,), 191)
    e = info.value
    assert (e.function, e.block, e.index, e.message) == (
        "three", "entry", 2, "step limit exhausted")
    # and the fused_map, the reduce_sum and the ret around them
    machine = interp.Machine(m, 1000)
    machine.call("map_three", (x,))
    assert machine.budget == [1000 - 195]
    with pytest.raises(EvalError) as info:
        eval_function(m, "map_three", (x,), 194)
    e = info.value
    assert (e.function, e.block, e.index, e.message) == (
        "map_three", "entry", 2, "step limit exhausted")


@pytest.mark.parametrize("body", ["branchy", "loop"])
def test_control_flow_body_maps_each_point(body):
    m = parse_ir(MAP_FAULTS_SRC)
    fn = m.get(body)
    assert not interp._rows_exact(m, fn)
    vals = [-1.5, -0.25, 0.0, 0.5, 2.0, -3.0]
    x = DenseTensor.from_flat((2, 3), vals)
    primal, (part,) = fused_map_with_partials(m, body, (x,))
    mapped = interp.Machine(m)._fused_map(fn, [x])
    assert primal.flat() == mapped.flat() == [eval_function(m, body, (v,))[0] for v in vals]
    assert part.flat() == [pack_rows(interp.Machine(m), fn, (v,))[1] for v in vals]


ILL_TYPED_SRC = """
func @mm(%x: f64) -> f64 {
^entry:
  %y = matmul %x, %x
  ret %y
}

func @flag(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  ret %c
}
"""


def test_kernel_type_error_is_a_located_eval_error():
    # unverified code: a kernel that meets a value of the wrong kind
    m = parse_ir(ILL_TYPED_SRC)
    assert _eval_error(lambda: eval_function(m, "mm", (2.0,))) == (
        "mm", "entry", 0, "'float' object has no attribute 'rank'")


def test_select_on_a_scalar_condition_makes_no_rank_zero_tensor():
    # unverified code: a select that is neither on a bool nor on a mask tensor
    m = parse_ir("""
func @pick(%x: f64) -> f64 {
^entry:
  %y = select %x, %x, %x
  ret %y
}
""")
    assert _eval_error(lambda: eval_function(m, "pick", (2.0,))) == (
        "pick", "entry", 0, "'float' object has no attribute 'data'")


@pytest.mark.parametrize("x", [0.5, DenseTensor.from_flat((3,), [-1.0, 0.5, 2.0])],
                         ids=["point", "rows"])
def test_pack_of_a_non_f64_result_names_the_function(x):
    # over rows the run fails on a mask and falls back to each point,
    # which fails the same way on a bool
    m = parse_ir(ILL_TYPED_SRC)
    assert interp._rows_exact(m, m.get("flag"))
    assert _eval_error(lambda: fused_map_with_partials(m, "flag", (x,))) == (
        "flag", "", -1, "returns a bool, not an f64")
