"""Source-to-source adjoints.

The transform is judged three ways everywhere else (tape and finite
differences via the acceptance suite); here the analytic fixtures pin
exact values and the structural properties pin what augment emits.
"""

import math
from math import prod

import pytest

from collections import Counter

from ssagrad import (ADError, DenseTensor, EvalError, Machine, StructureError, augment,
                     build_grad_function, eval_function, finite_diff, grad,
                     grad_of_grad, parse_ir, print_ir, trace_grad, verify)

from ssagrad.ir import F64
from ssagrad.rules import RULES

from conftest import bits, max_rel, rel
from test_acceptance import FD_TOL


def test_product_rule(analytic):
    g = grad(analytic, "prod", (2.0, 3.0))
    assert g == {0: 3.0, 1: 2.0}


def test_loop_cube(analytic):
    for x in (2.0, -1.5, 0.3):
        g = grad(analytic, "cube", (x,))
        assert rel(g[0], 3 * x * x) < 1e-12


def test_branch_sign(analytic):
    assert grad(analytic, "absval", (2.5,))[0] == 1.0
    assert grad(analytic, "absval", (-2.5,))[0] == -1.0


def test_data_dependent_trips(analytic):
    for n in (0, 1, 5, 8):
        g = grad(analytic, "powloop", (1.3, n))
        assert rel(g[0], n * 1.3 ** (n - 1) if n else 0.0) < 1e-12


def test_call_inlined(analytic):
    g = grad(analytic, "callin", (1.3,))
    assert rel(g[0], 4 * 1.3 ** 3) < 1e-12


def test_tensor_adjoints_match_tape(analytic):
    w = DenseTensor.from_flat((2, 3), [0.3, -0.5, 0.8, 1.1, 0.2, -0.4])
    v = DenseTensor.from_flat((3, 1), [0.5, -1.2, 0.9])
    g = grad(analytic, "net", (w, v))
    o = trace_grad(analytic, "net", (w, v), (1.0,))
    for vid in g:
        assert max_rel(g[vid], o[vid]) < 1e-14


def test_augment_names_and_caching(analytic):
    aug, pb = augment(analytic, "prod")
    assert aug.name == "prod__aug" and pb.name == "prod__pb"
    aug2, pb2 = augment(analytic, "prod")
    assert aug2 is aug and pb2 is pb


def test_augmented_primal_bit_identical(analytic):
    augment(analytic, "cube")
    for x in (0.7, -2.0, 1.9):
        base = eval_function(analytic, "cube", (x,))
        out = eval_function(analytic, "cube__aug", (x,))
        assert out[0] == base[0]


def test_augmented_module_verifies_and_round_trips(analytic):
    for name in ("prod", "cube", "absval", "net", "callin", "mapped"):
        augment(analytic, name)
    assert verify(analytic) == []
    text = print_ir(analytic)
    m2 = parse_ir(text)
    assert print_ir(m2) == text
    # the reparsed adjoint still computes
    g = grad(m2, "cube", (2.0,))
    assert g[0] == 12.0


def test_pullback_is_pure(analytic):
    aug, pb = augment(analytic, "cube")
    machine = Machine(analytic, 100_000)
    out = machine.call(aug.name, (1.5,))
    blog, vstack = out[1], out[2]
    a = machine.call(pb.name, (blog, vstack, 1.0))
    b = machine.call(pb.name, (blog, vstack, 1.0))
    assert a == b


def test_seed_scaling(analytic):
    g = grad(analytic, "prod", (2.0, 3.0), (7.0,))
    assert g == {0: 21.0, 1: 14.0}


def test_multi_result_seeds():
    m = parse_ir("""
func @pair(%x: f64) -> (f64, f64) {
^entry:
  %d = add %x, %x
  %s = mul %x, %x
  ret %d, %s
}
""")
    assert grad(m, "pair", (3.0,), (1.0, 0.0)) == {0: 2.0}
    assert grad(m, "pair", (3.0,), (0.0, 1.0)) == {0: 6.0}
    with pytest.raises(ValueError):
        grad(m, "pair", (3.0,))


def test_int_params_absent(analytic):
    g = grad(analytic, "powloop", (2.0, 3))
    assert list(g) == [0]


def test_build_grad_function(analytic):
    wrapper = build_grad_function(analytic, "cube")
    assert wrapper.name == "cube__grad"
    assert eval_function(analytic, "cube__grad", (2.0,)) == (12.0,)
    assert verify(analytic) == []


def test_grad_of_grad_cube(analytic):
    for x in (1.1, -0.4, 2.0):
        assert rel(grad_of_grad(analytic, "cube", x), 6 * x) < 1e-9


def test_grad_of_grad_transcendentals():
    m = parse_ir("""
func @t(%x: f64) -> f64 {
^entry:
  %y = tanh %x
  ret %y
}

func @e(%x: f64) -> f64 {
^entry:
  %y = exp %x
  ret %y
}
""")
    for x in (0.3, -1.0, 0.9):
        want = -2 * math.tanh(x) / math.cosh(x) ** 2
        assert rel(grad_of_grad(m, "t", x), want) < 1e-9
        assert rel(grad_of_grad(m, "e", x), math.exp(x)) < 1e-9


def test_relu_kink_sides():
    m = parse_ir("""
func @r(%x: f64) -> f64 {
^entry:
  %y = relu %x
  ret %y
}
""")
    assert grad(m, "r", (2.0,))[0] == 1.0
    assert grad(m, "r", (-2.0,))[0] == 0.0


def test_recursion_rejected():
    m = parse_ir("""
func @loopy(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @loopy}
  ret %y
}
""")
    with pytest.raises(ADError, match="recursive"):
        augment(m, "loopy")


def test_op_without_rule_named():
    m = parse_ir("""
func @halfsig(%a: f64) -> f64 {
^entry:
  %s = sigmoid %a
  ret %s
}

func @packs(%x: tensor<3xf64>) -> tensor<2x3xf64> {
^entry:
  %p = fused_pack %x {fn = @halfsig}
  ret %p
}
""")
    with pytest.raises(ADError, match="fused_pack"):
        augment(m, "packs")


def test_grad_matches_fd_on_mapped(analytic):
    x = DenseTensor.from_flat((4,), [0.2, -0.9, 1.4, 0.05])
    g = grad(analytic, "mapped", (x, 0.7))
    fd = finite_diff(analytic, "mapped", (x, 0.7), (1.0,))
    assert max_rel(g[0], fd[0]) < 1e-6
    assert rel(g[1], fd[1]) < 1e-6


def test_augment_unknown_jump_target_is_structure_error():
    # the parser rejects unknown targets, so the edit is made on the IR
    m = parse_ir("""
func @f(%x: f64) -> f64 {
^entry:
  jmp ^b(%x)
^b(%y: f64):
  ret %y
}
""")
    m.get("f").blocks[0].term.target = "__nowhere"
    with pytest.raises(StructureError, match=r"^@f \^entry: terminator targets unknown block \^__nowhere$"):
        augment(m, "f")


def test_batched_traces_cannot_be_differentiated():
    # a per-lane push or pop moves values through a batched trace, which
    # the pullback cannot reverse; augment names it instead of dropping
    # the values' cotangents
    m = parse_ir("""
func @push(%t: tapes<2>, %v: tensor<2xf64>) -> tapes<2> {
^entry:
  %t2 = tape_push %t, %v {per_lane = true}
  ret %t2
}

func @pop(%t: tapes<2>, %x: tensor<2xf64>) -> tensor<2xf64> {
^entry:
  %v = tape_top %t {ty = tensor<2xf64>, per_lane = true}
  %y = mul %v, %x
  ret %y
}
""")
    for name in ("push", "pop"):
        with pytest.raises(ADError, match=rf"^@{name}: batched traces cannot be differentiated$"):
            augment(m, name)


# hand-written functions with inactive values: a dead chain, a
# constant broadcast, an itof accumulator carried by a loop, and dead
# instructions that fault
ACTIVITY_SRC = """
func @dead(%x: f64, %w: tensor<3xf64>) -> f64 {
^entry:
  %d = mul %x, %x
  %e = exp %d
  %two = const f64 2.0
  %b = bcast %two {shape = [3]}
  %p = mul %w, %b
  %s = reduce_sum %p {axis = all}
  %y = mul %s, %x
  ret %y
}

func @counted(%x: f64, %n: i64) -> f64 {
^entry:
  %zero = const f64 0.0
  %i0 = const i64 0
  jmp ^head(%i0, %x, %zero)
^head(%i: i64, %acc: f64, %cnt: f64):
  %go = lt %i, %n
  br %go, ^body, ^exit(%acc, %cnt)
^body:
  %fi = itof %i
  %cnt2 = add %cnt, %fi
  %acc2 = mul %acc, %x
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %acc2, %cnt2)
^exit(%a: f64, %c: f64):
  %r = add %a, %c
  ret %r
}

func @deadlog(%x: f64) -> f64 {
^entry:
  %five = const f64 5.0
  %u = sub %x, %five
  %l = log %u
  %y = mul %x, %x
  ret %y
}

func @deaddiv(%x: f64) -> f64 {
^entry:
  %one = const f64 1.0
  %u = sub %x, %one
  %q = div %one, %u
  %y = mul %x, %x
  ret %y
}
"""

ACTIVITY_ARGS = {
    "dead": (0.7, DenseTensor.from_flat((3,), [0.3, -1.2, 2.5])),
    "counted": (1.3, 4),
    "deadlog": (6.5,),
    "deaddiv": (2.5,),
}


def _ops(fn) -> Counter:
    return Counter(ins.op for b in fn.blocks for ins in b.body)


@pytest.mark.parametrize("name", ACTIVITY_ARGS)
def test_activity_gradients_match_the_tape(name):
    m = parse_ir(ACTIVITY_SRC)
    args = ACTIVITY_ARGS[name]
    g = grad(m, name, args)
    t = trace_grad(m, name, args, (1.0,))
    assert g.keys() == t.keys()
    for vid in g:
        assert max_rel(g[vid], t[vid]) < 1e-12


def test_dead_and_constant_values_get_no_adjoint_code():
    m = parse_ir(ACTIVITY_SRC)
    aug, pb = augment(m, "dead")
    # the dead mul/exp chain is gone from both; the forward clone pushes
    # only the operands of the two active products
    assert _ops(aug) == Counter({"tape_new": 2, "tape_push": 4, "const": 1, "bcast": 1,
                                 "mul": 2, "reduce_sum": 1})
    # the pullback pops x, s, b and w, reads w only to keep its pop whole,
    # and sums no cotangent into the broadcast constant
    assert _ops(pb) == Counter({"tape_top": 4, "tape_rest": 4, "mul": 3, "bcast": 1,
                                "tape_expect_empty": 2})


# second derivatives through tensor code whose pullback pops a tensor
# that only the adjoint of a constant reads
SECOND_ORDER_SRC = """
func @scaled(%x: f64) -> f64 {
^entry:
  %b = bcast %x {shape = [3]}
  %k = const tensor<3xf64> [0.5, -1.0, 2.0]
  %p = mul %b, %k
  %s = reduce_sum %p {axis = all}
  ret %s
}

func @squared(%x: f64) -> f64 {
^entry:
  %b = bcast %x {shape = [3]}
  %k = const tensor<3xf64> [0.5, -1.0, 2.0]
  %p = mul %b, %k
  %q = mul %p, %b
  %s = reduce_sum %q {axis = all}
  ret %s
}
"""


def test_grad_of_grad_through_constant_tensors():
    m = parse_ir(SECOND_ORDER_SRC)
    for x in (-1.3, 0.7):
        assert grad_of_grad(m, "scaled", x) == 0.0
        # d2/dx2 of x^2 * (0.5 - 1.0 + 2.0)
        assert rel(grad_of_grad(m, "squared", x), 3.0) < 1e-12


def test_loop_carries_no_cotangent_for_an_itof_accumulator():
    m = parse_ir(ACTIVITY_SRC)
    _, pb = augment(m, "counted")
    (head,) = [b for b in pb.blocks if b.name.startswith("head")]
    # the pending flag, both traces, and the cotangents of %acc and of
    # the loop-invariant %x; none for %cnt
    assert [ty for _, ty in head.params].count(F64) == 2
    for n in (0, 1, 4):
        assert rel(grad(m, "counted", (1.3, n))[0], (n + 1) * 1.3 ** n) < 1e-12


@pytest.mark.parametrize("name, x", [("deadlog", 4.5), ("deaddiv", 1.0)])
def test_dead_faulting_instructions_still_raise(name, x):
    m = parse_ir(ACTIVITY_SRC)
    with pytest.raises(EvalError) as want:
        eval_function(m, name, (x,))
    with pytest.raises(EvalError) as got:
        grad(m, name, (x,))
    assert (got.value.function, got.value.block, got.value.message) == (
        f"{name}__aug", want.value.block, want.value.message)


# one function per adjoint rule, each applying its op once to its
# parameters; shapes make the broadcasting rules fold cotangents back.
# @bmm is matmul with a lane axis, @reduce_sum_tail folds the last axis,
# and @reduce_to is the fold that takes a broadcast back to an operand
RULE_SRC = """
func @add(%a: tensor<2x3xf64>, %b: tensor<3xf64>) -> tensor<2x3xf64> {
^entry:
  %r = add %a, %b
  ret %r
}
func @sub(%a: f64, %b: tensor<2x2xf64>) -> tensor<2x2xf64> {
^entry:
  %r = sub %a, %b
  ret %r
}
func @mul(%a: tensor<2x3xf64>, %b: tensor<2x1xf64>) -> tensor<2x3xf64> {
^entry:
  %r = mul %a, %b
  ret %r
}
func @div(%a: tensor<3xf64>, %b: f64) -> tensor<3xf64> {
^entry:
  %r = div %a, %b
  ret %r
}
func @neg(%a: f64) -> f64 {
^entry:
  %r = neg %a
  ret %r
}
func @exp(%a: tensor<3xf64>) -> tensor<3xf64> {
^entry:
  %r = exp %a
  ret %r
}
func @log(%a: f64) -> f64 {
^entry:
  %r = log %a
  ret %r
}
func @tanh(%a: tensor<2x2xf64>) -> tensor<2x2xf64> {
^entry:
  %r = tanh %a
  ret %r
}
func @sigmoid(%a: f64) -> f64 {
^entry:
  %r = sigmoid %a
  ret %r
}
func @relu_f64(%a: f64) -> f64 {
^entry:
  %r = relu %a
  ret %r
}
func @relu_tensor(%a: tensor<4xf64>) -> tensor<4xf64> {
^entry:
  %r = relu %a
  ret %r
}
func @pow_int(%a: tensor<3xf64>) -> tensor<3xf64> {
^entry:
  %r = pow_int %a {n = 3}
  ret %r
}
func @pow_int_0(%a: f64) -> f64 {
^entry:
  %r = pow_int %a {n = 0}
  ret %r
}
func @select_bool(%c: bool, %a: tensor<3xf64>, %b: tensor<3xf64>) -> tensor<3xf64> {
^entry:
  %r = select %c, %a, %b
  ret %r
}
func @select_mask(%c: tensor<3xf64>, %a: tensor<3xf64>, %b: f64) -> tensor<3xf64> {
^entry:
  %r = select %c, %a, %b
  ret %r
}
func @matmul(%a: tensor<2x3xf64>, %b: tensor<3x2xf64>) -> tensor<2x2xf64> {
^entry:
  %r = matmul %a, %b
  ret %r
}
func @bmm(%a: tensor<2x2x3xf64>, %b: tensor<2x3x2xf64>) -> tensor<2x2x2xf64> {
^entry:
  %r = matmul %a, %b
  ret %r
}
func @transpose(%a: tensor<2x3xf64>) -> tensor<3x2xf64> {
^entry:
  %r = transpose %a
  ret %r
}
func @reshape(%a: tensor<2x3xf64>) -> tensor<3x2xf64> {
^entry:
  %r = reshape %a {shape = [3, 2]}
  ret %r
}
func @reduce_sum_all(%a: tensor<2x3xf64>) -> f64 {
^entry:
  %r = reduce_sum %a {axis = all}
  ret %r
}
func @reduce_sum_tail(%a: tensor<2x3x2xf64>) -> tensor<2x3xf64> {
^entry:
  %r = reduce_sum %a {axis = 2}
  ret %r
}
func @reduce_sum_1(%a: tensor<2x3xf64>) -> tensor<2xf64> {
^entry:
  %r = reduce_sum %a {axis = 1}
  ret %r
}
func @bcast(%a: tensor<3xf64>) -> tensor<2x3xf64> {
^entry:
  %r = bcast %a {shape = [2, 3]}
  ret %r
}
func @reduce_to(%a: tensor<2x3xf64>) -> tensor<3xf64> {
^entry:
  %r = reduce_sum %a {axis = 0}
  ret %r
}
func @stack(%a: tensor<3xf64>, %b: tensor<3xf64>) -> tensor<3x2xf64> {
^entry:
  %r = stack %a, %b {axis = 1}
  ret %r
}
func @unstack(%a: tensor<2x3xf64>) -> tensor<2xf64> {
^entry:
  %r = unstack %a {index = 1, axis = 1}
  ret %r
}
func @fused_map(%a: tensor<3xf64>, %b: f64) -> tensor<3xf64> {
^entry:
  %r = fused_map %a, %b {fn = @scal}
  ret %r
}
func @scal(%x: f64, %y: f64) -> f64 {
^entry:
  %p = mul %x, %y
  %s = sigmoid %p
  %q = add %s, %x
  ret %q
}
"""


def _t(shape, *vals):
    return DenseTensor.from_flat(shape, vals)


RULE_ARGS = {
    "add": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4), _t((3,), 0.9, -1.2, 0.5)),
    "sub": (0.7, _t((2, 2), 0.3, -0.5, 0.8, 1.1)),
    "mul": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4), _t((2, 1), 1.3, -0.6)),
    "div": (_t((3,), 0.3, -0.5, 0.8), -1.7),
    "neg": (0.9,),
    "exp": (_t((3,), 0.3, -0.5, 0.8),),
    "log": (1.9,),
    "tanh": (_t((2, 2), 0.3, -0.5, 0.8, 1.1),),
    "sigmoid": (-0.6,),
    "relu_f64": (0.4,),
    "relu_tensor": (_t((4,), 0.3, -0.5, 0.8, -1.1),),
    "pow_int": (_t((3,), 0.3, -0.5, 0.8),),
    "pow_int_0": (1.3,),
    "select_bool": (False, _t((3,), 0.3, -0.5, 0.8), _t((3,), 1.1, 0.2, -0.4)),
    "select_mask": (_t((3,), 1.0, 0.0, 1.0), _t((3,), 0.3, -0.5, 0.8), 0.6),
    "matmul": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4),
               _t((3, 2), 0.9, -1.2, 0.5, 0.7, -0.3, 1.4)),
    "bmm": (_t((2, 2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4, 0.6, 0.1, -0.9, 1.2, -0.7, 0.4),
            _t((2, 3, 2), 0.9, -1.2, 0.5, 0.7, -0.3, 1.4, 0.2, 0.8, -0.6, 1.0, 0.3, -1.1)),
    "transpose": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4),),
    "reshape": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4),),
    "reduce_sum_all": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4),),
    "reduce_sum_tail": (_t((2, 3, 2), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4,
                            0.6, 0.1, -0.9, 1.2, -0.7, 0.4),),
    "reduce_sum_1": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4),),
    "bcast": (_t((3,), 0.9, -1.2, 0.5),),
    "reduce_to": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4),),
    "stack": (_t((3,), 0.3, -0.5, 0.8), _t((3,), 1.1, 0.2, -0.4)),
    "unstack": (_t((2, 3), 0.3, -0.5, 0.8, 1.1, 0.2, -0.4),),
    "fused_map": (_t((3,), 0.3, -0.5, 0.8), 0.7),
}


def _seed(ty):
    # uneven weights, so a cotangent routed to the wrong element shows
    if ty.kind == "f64":
        return 1.0
    return DenseTensor.from_flat(ty.shape, [0.5 + 0.25 * i for i in range(prod(ty.shape))])


def test_rule_table_covers_every_rule():
    m = parse_ir(RULE_SRC)
    assert {m.get(name).blocks[0].body[0].op for name in RULE_ARGS} == set(RULES)


@pytest.mark.parametrize("name", RULE_ARGS)
def test_every_adjoint_rule_three_ways(name):
    m = parse_ir(RULE_SRC)
    fn = m.get(name)
    assert len(fn.blocks) == 1 and len(fn.blocks[0].body) == 1
    args = RULE_ARGS[name]
    seeds = (_seed(fn.results[0]),)
    g = grad(m, name, args, seeds)
    t = trace_grad(m, name, args, seeds)
    fd = finite_diff(m, name, args, seeds)
    assert g.keys() == t.keys() == fd.keys()
    for vid in g:
        assert bits(g[vid]) == bits(t[vid])
        assert max_rel(g[vid], fd[vid]) <= FD_TOL


# values pushed onto a trace and read back by a tape_top paired with a
# tape_rest in the same region: @scalar holds one f64 entry, @tensor a
# tensor entry under an f64 one
TRACE_SRC = """
func @scalar(%x: f64) -> f64 {
^entry:
  %t0 = tape_new
  %t1 = tape_push %t0, %x
  %v = tape_top %t1 {ty = f64}
  %r = tape_rest %t1
  %y = mul %v, %v
  ret %y
}

func @tensor(%a: tensor<3xf64>, %x: f64) -> f64 {
^entry:
  %t0 = tape_new
  %t1 = tape_push %t0, %a
  %t2 = tape_push %t1, %x
  %u = tape_top %t2 {ty = f64}
  %r2 = tape_rest %t2
  %w = tape_top %r2 {ty = tensor<3xf64>}
  %r1 = tape_rest %r2
  %p = mul %w, %u
  %q = tanh %p
  %y = reduce_sum %q {axis = all}
  ret %y
}
"""


@pytest.mark.parametrize("name, args", [("scalar", (0.5,)),
                                        ("tensor", (_t((3,), 0.3, -0.5, 0.8), 0.7))])
def test_values_through_a_trace_three_ways(name, args):
    m = parse_ir(TRACE_SRC)
    g = grad(m, name, args)
    t = trace_grad(m, name, args, (1.0,))
    fd = finite_diff(m, name, args, (1.0,))
    assert g.keys() == t.keys() == fd.keys()
    for vid in g:
        assert max_rel(g[vid], t[vid]) <= 1e-12
        assert max_rel(g[vid], fd[vid]) <= FD_TOL


def test_a_lone_tape_top_is_refused():
    # with no tape_rest of its trace in its region, the pullback has no
    # place to send the top's cotangent, and the gradient would read 0.0
    src = TRACE_SRC.split("func @tensor")[0].replace("  %r = tape_rest %t1\n", "")
    with pytest.raises(ADError, match="tape_top %v has no tape_rest of its trace"):
        augment(parse_ir(src), "scalar")
