"""Source-to-source adjoints.

The transform is judged three ways everywhere else (tape and finite
differences via the acceptance suite); here the analytic fixtures pin
exact values and the structural properties pin what augment emits.
"""

import copy
import gc
import math
import random
import weakref
from math import prod

import pytest

from collections import Counter

from ssagrad import (ADError, BatchError, DANConfig, DenseTensor, EvalError, Machine, Module,
                     StructureError, augment, build_grad_function, eval_function, finite_diff,
                     generate_suite, grad, grad_of_grad, parse_ir, print_ir, structure, structurize,
                     trace_grad, vectorize, verify)

from ssagrad.ir import F64, Diagnostic, print_function
from ssagrad.lower import lower
from ssagrad.nn_train import build_eval_ir, build_loss_ir, build_step_ir
from ssagrad.reverse_ad import vjp
from ssagrad.rules import RULES
from ssagrad.structure import (SEmitter, add_tree, defs, drop_dead, flatten, reads, simplify,
                               splice_function, walk)

from conftest import ANALYTIC_SRC, bits, max_rel, rel
from test_acceptance import FD_TOL
from test_spmd import BATCH_SRC


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


BRANCH_CALL_SRC = """
func @sq(%x: f64) -> f64 {
^entry:
  %y = mul %x, %x
  ret %y
}

func @f(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = lt %x, %z
  br %c, ^neg(), ^pos()
^neg:
  %n = neg %x
  jmp ^join(%n)
^pos:
  jmp ^join(%x)
^join(%a: f64):
  %s = call %a {fn = @sq}
  ret %s
}
"""


def test_corrupted_copy_of_a_verified_function_is_checked_again():
    # verify keeps f's tree; a deep copy starts without it, so augment
    # structurizes the corrupted copy and names the fault
    m = parse_ir(BRANCH_CALL_SRC)
    assert verify(m) == []
    broken = copy.deepcopy(m.get("f"))
    assert broken.tier.checked is None
    broken.blocks[0].term.then_target = "__nowhere"
    with pytest.raises(StructureError, match=r"^@f \^entry: terminator targets unknown block \^__nowhere$"):
        augment(Module({"sq": m.get("sq"), "f": broken}), "f")
    assert grad(m, "f", (-3.0,)) == {0: -6.0}


I64_SQ_SRC = "func @sq(%x: f64) -> i64 {\n^entry:\n  %k = const i64 1\n  ret %k\n}\n"


@pytest.mark.parametrize("edit", ["add", "assign", "delete"])
def test_replacing_or_removing_a_callee_drops_the_callers_tree(edit):
    # f's tree was typed against @sq: once @sq is another function, or
    # gone, augment structurizes f again and names the fault
    m = parse_ir(BRANCH_CALL_SRC)
    assert verify(m) == []
    other = parse_ir(I64_SQ_SRC).get("sq")
    if edit == "add":
        m.add(other)
    elif edit == "assign":
        m.functions["sq"] = other
    else:
        del m.functions["sq"]
    gc.collect()  # frees the old @sq: a dead reference keeps no tree either
    want = "%s: call: unknown function @sq" if edit == "delete" else \
        "ret value %s has type i64, want f64"
    with pytest.raises(StructureError, match=rf"^@f \^join: {want}$"):
        augment(m, "f")


def test_verify_checks_afresh_and_holds_no_module():
    m = parse_ir(BRANCH_CALL_SRC + """
func @bad(%x: f64) -> f64 {
^entry:
  %b = lt %x, %x
  ret %b
}
""")
    bad = Diagnostic("bad", "entry", "ret value %b has type bool, want f64")
    assert verify(m) == verify(m) == [bad]
    assert m.get("bad").tier.checked is None
    # an edit made since the last verify is found by the next
    m.get("f").blocks[0].term.then_target = "__nowhere"
    assert verify(m) == [Diagnostic("f", "entry", "terminator targets unknown block ^__nowhere"), bad]
    m = parse_ir(BRANCH_CALL_SRC + """
func @r(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @r}
  ret %y
}
""")
    # trees refer to the functions they call weakly and to the module not
    # at all: dropping the module frees it and the recursive @r at once,
    # with no cycle left for the collector; f's tree still serves any
    # module that maps sq to the same function
    gc.collect()
    gc.disable()
    try:
        assert verify(m) == []
        sq, fn, refs = m.get("sq"), m.get("f"), (weakref.ref(m), weakref.ref(m.get("r")))
        del m
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    assert structurize(fn, Module({"sq": sq, "f": fn})) is fn.tier.checked[0]
    assert structurize(fn, Module({"sq": copy.deepcopy(sq), "f": fn})) is not fn.tier.checked[0]


def test_a_compile_leaves_no_cyclic_garbage():
    # parsing, verify and every transform free what they make by reference
    # counting alone: on a seed-7 corpus slice and the DAN loss, a whole
    # compile leaves nothing for the cyclic collector to find
    module = Module()
    names = [name for name, _ in generate_suite(module, random.Random(7), 20)]
    cfg = DANConfig()
    names.append(build_loss_ir(module, (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes),
                               cfg.batch_size).name)
    text = print_ir(module)
    gc.collect()
    gc.disable()
    try:
        m = parse_ir(text)
        assert verify(m) == []
        for name in names:
            aug, pb = augment(m, name)
            for f in (name, aug.name, pb.name):
                vectorize(m, f, 8)
            if m.get(name).results == (F64,) and m.get(name).params[0][1] == F64:
                build_grad_function(m, name)
        del m, aug, pb
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_augment_reads_the_verified_tree_on_the_corpus():
    # on the seed-7 corpus the tree verify keeps is the one augment gets,
    # equal to a fresh structurize, and the adjoints built from it print
    # the same as those built from an unverified parse of the same text
    module = Module()
    for name, _ in generate_suite(module, random.Random(7), 200):
        text = print_ir(Module({name: module.get(name)}))
        checked, fresh = parse_ir(text), parse_ir(text)
        assert verify(checked) == []
        fn = checked.get(name)
        assert structurize(fn, checked) is fn.tier.checked[0]
        assert fn.tier.checked[0] == structurize(fresh.get(name), fresh)
        assert [print_function(f) for f in augment(checked, name)] == \
            [print_function(f) for f in augment(fresh, name)]


def _compile_everything(m: Module) -> list[str]:
    """Verify ``m``, then augment each of its functions that can be, and
    build each ``__grad`` that can be and augment it too; returns the
    names of the functions the transforms made."""
    assert verify(m) == []
    made = []
    for name in list(m.functions):
        try:
            made += [f.name for f in augment(m, name)]
        except ADError:
            continue
        fn = m.get(name)
        if fn.results == (F64,) and fn.params and fn.params[0][1] == F64:
            made.append(build_grad_function(m, name).name)
            made += [f.name for f in augment(m, made[-1])]
    return made


def _outcome(f, *args) -> str:
    """What ``f(*args)`` prints, or the error it raises."""
    try:
        return print_function(f(*args))
    except (ADError, StructureError, BatchError) as e:
        return f"{type(e).__name__}: {e}"


def _kept_tree_module(src: str) -> tuple[Module, list[str]]:
    """A module compiled from ``src`` and the functions its transforms made."""
    if src == "dan":
        m, cfg = Module(), DANConfig()
        sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
        loss = build_loss_ir(m, sizes, 4)
        made = [loss.name, build_eval_ir(m, sizes, 4).name]
        return m, made + [f.name for f in augment(m, loss.name)] + [build_step_ir(m, sizes, 4).name]
    if src == "corpus":
        module = Module()
        names = [name for name, _ in generate_suite(module, random.Random(7), 12)]
        text = print_ir(Module({n: module.get(n) for n in names}))
    else:
        text = {"analytic": ANALYTIC_SRC, "batch": BATCH_SRC}[src]
    m = parse_ir(text)
    return m, _compile_everything(m)


def _seen(sf) -> dict:
    """The type of every value ``sf``'s region defines or reads, and of
    its parameters and returned values."""
    vids = {pv for pv, _ in sf.params} | set(sf.ret_vals)
    for node in walk(sf.region):
        vids.update(reads(node), defs(node))
    return {v: sf.types[v] for v in vids}


@pytest.mark.parametrize("src", ["corpus", "analytic", "batch", "dan"])
def test_kept_trees_are_what_structurize_recovers(src):
    # every tree verify or a transform keeps is the tree structurize
    # recovers from a cold copy of its function; vectorize and lower read
    # the same code from either
    m, made = _kept_tree_module(src)
    assert made and all(m.get(n).tier.checked for n in made)
    cold = copy.deepcopy(m)
    kept = [n for n, f in m.functions.items() if f.tier.checked]
    for name in kept:
        fn, cold_fn = m.get(name), cold.get(name)
        sf = fn.tier.checked[0]
        assert structurize(fn, m) is sf
        assert cold_fn.tier.checked is None
        fresh = structurize(cold_fn, cold)
        assert (sf.params, sf.results, sf.ret_vals, sf.region) == \
            (fresh.params, fresh.results, fresh.ret_vals, fresh.region)
        assert _seen(sf) == _seen(fresh)
        lower(fn, m)
        lower(cold_fn, cold)
        assert fn.tier.source == cold_fn.tier.source
        assert _outcome(vectorize, m, name, 3) == _outcome(vectorize, cold, name, 3)


def _count_analyses(monkeypatch) -> Counter:
    """A count, by function name, of the ``structure.analyze_cfg`` calls
    made from now on."""
    calls = Counter()
    analyze = structure.analyze_cfg

    def counted(fn):
        calls[fn.name] += 1
        return analyze(fn)

    monkeypatch.setattr(structure, "analyze_cfg", counted)
    return calls


def test_generated_code_is_structurized_once(monkeypatch):
    # verify checks each user function once; augment keeps the trees of
    # the pair it builds, and the DAN loss and eval builders keep theirs,
    # so augmenting the loss, batching both halves twice and lowering
    # analyse nothing again
    calls = _count_analyses(monkeypatch)
    m = parse_ir(ANALYTIC_SRC)
    users = list(m.functions)
    assert verify(m) == []
    cfg = DANConfig()
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    loss, ev = build_loss_ir(m, sizes, 4), build_eval_ir(m, sizes, 4)
    for name in ("cube", "absval", "net", "callin", "mapped", loss.name):
        aug, pb = augment(m, name)
        for B in (8, 64):
            vectorize(m, aug.name, B)
            vectorize(m, pb.name, B)
        for fn in (m.get(name), aug, pb):
            lower(fn, m)
    vectorize(m, ev.name, 8)
    lower(ev, m)
    assert calls == Counter(users)
    # @mapped__aug's fused_pack names @gauss: once @gauss is another
    # function, its tree is built again
    calls.clear()
    m.functions["gauss"] = copy.deepcopy(m.get("gauss"))
    aug = m.get("mapped__aug")
    assert structurize(aug, m) is not aug.tier.checked[0]
    assert calls == Counter(["mapped__aug"])


def test_grad_and_step_builders_emit_one_function(monkeypatch):
    # on a freshly verified module, each @f__grad and the DAN step is one
    # function emitted straight from the verified trees: it leaves no
    # @f__aug or @f__pb behind, nothing is structurized again, and
    # drop_dead finds nothing more to remove from it
    m = parse_ir(ANALYTIC_SRC)
    cfg = DANConfig()
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    build_loss_ir(m, sizes, 4)
    assert verify(m) == []
    calls = _count_analyses(monkeypatch)
    builds = [lambda name=name: build_grad_function(m, name) for name, fn in m.functions.items()
              if fn.results == (F64,) and fn.params and fn.params[0][1].is_differentiable]
    builds.append(lambda: build_step_ir(m, sizes, 4))
    for build in builds:
        before = set(m.functions)
        fn = build()
        assert set(m.functions) == before | {fn.name}
        sf = fn.tier.checked[0]
        assert drop_dead(copy.deepcopy(sf)).region == sf.region
    assert len(builds) == 10 and not calls


def test_batched_traces_cannot_be_differentiated():
    # a push or pop moves values through a batched trace, which
    # the pullback cannot reverse; augment names it instead of dropping
    # the values' cotangents
    m = parse_ir("""
func @push(%t: tapes<2>, %v: tensor<2xf64>) -> tapes<2> {
^entry:
  %t2 = tape_push %t, %v
  ret %t2
}

func @pop(%t: tapes<2>, %x: tensor<2xf64>) -> tensor<2xf64> {
^entry:
  %v = tape_top %t {ty = tensor<2xf64>}
  %y = mul %v, %x
  ret %y
}
""")
    for name in ("push", "pop"):
        with pytest.raises(ADError, match=rf"^@{name}: batched traces cannot be differentiated$"):
            augment(m, name)


REFUSED_SRC = """
func @two(%x: f64) -> (f64, f64) {
^entry:
  ret %x, %x
}

func @count(%n: i64, %x: f64) -> f64 {
^entry:
  ret %x
}

func @prod(%x: f64, %y: f64) -> f64 {
^entry:
  %p = mul %x, %y
  ret %p
}

func @pick(%x: f64, %c: bool) -> f64 {
^entry:
  %a = tape_new
  %b = tape_push %a, %x
  %t = select %c, %a, %b
  %y = tape_top %t {ty = f64}
  %z = mul %y, %x
  ret %z
}
"""


@pytest.mark.parametrize("call, error, message", [
    (lambda m: build_grad_function(m, "two"), ADError,
     "@two must return a single f64 to chain derivatives"),
    (lambda m: build_grad_function(m, "count"), ADError,
     "@count needs a differentiable first parameter"),
    (lambda m: grad_of_grad(m, "prod", 1.0), ADError, "@prod must take a single f64 parameter"),
    (lambda m: grad(m, "prod", (1.0, 2.0), (1.0, 1.0)), ValueError, "expected 1 seeds, got 2"),
    (lambda m: augment(m, "pick"), ADError, "@pick: cannot differentiate a select over traces"),
], ids=["grad_fn_results", "grad_fn_param", "grad_of_grad_params", "seed_count", "select_traces"])
def test_public_refusals_name_their_cause(call, error, message):
    m = parse_ir(REFUSED_SRC)
    assert verify(m) == []
    with pytest.raises(error) as info:
        call(m)
    assert str(info.value) == message


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


# two results: the second reaches %y through an exp, and %z only through it
TWO_RESULTS_SRC = """
func @two(%x: f64, %y: f64, %z: f64) -> (f64, f64) {
^entry:
  %a = mul %x, %y
  %e = exp %y
  %b = mul %e, %z
  ret %a, %b
}
"""


def test_a_zero_seed_gets_no_adjoint_code():
    # vjp takes a 0.0 constant seed as no cotangent, so the rules of %b and
    # %e emit nothing: the two muls are %a's rule, and drop_dead removed
    # the forward muls; the five pushes and their pops stay
    m = parse_ir(TWO_RESULTS_SRC)
    em = SEmitter("two_vjp", (F64, F64, F64), m)
    params = tuple(em.param(n, F64) for n in "xyz")
    _, (cots,) = vjp(em, "two", params, [(1.0, 0.0)])
    fn = add_tree(m, drop_dead(em.finish(cots)))
    body = [ins for b in fn.blocks for ins in b.body]
    zeros = {ins.result for ins in body if ins.op == "const" and ins.attrs["value"] == 0.0}
    # no 0.0 seed is read: the only zero is %z's cotangent, which is returned
    assert zeros == {fn.blocks[-1].term.values[2]}
    assert not any(zeros & set(ins.operands) for ins in body)
    assert _ops(fn) == Counter({"tape_new": 2, "tape_push": 5, "tape_top": 5, "tape_rest": 5,
                                "tape_expect_empty": 2, "exp": 1, "mul": 2, "const": 2})
    # at y = 1000 the old chain sent 0 * exp(y) = 0 * inf into %y and %z,
    # which augment's pullback still does on a runtime 0.0 seed; the
    # finite cotangents here are intended
    args = (2.0, 1000.0, 3.0)
    assert [bits(v) for v in Machine(m).run(fn, args)] == [bits(v) for v in (1000.0, 2.0, 0.0)]
    old = grad(m, "two", args, (1.0, 0.0))
    assert old[0] == 1000.0 and math.isnan(old[1]) and math.isnan(old[2])


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
func @unstack_1(%a: tensor<3xf64>) -> f64 {
^entry:
  %r = unstack %a {index = 2, axis = 0}
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
    "unstack_1": (_t((3,), 0.3, -0.5, 0.8),),
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


# %r2 drops the tensor entry with no tape_top
LONE_REST_SRC = """
func @lone_rest(%x: f64) -> f64 {
^entry:
  %b = bcast %x {shape = [3]}
  %t0 = tape_new
  %t1 = tape_push %t0, %x
  %t2 = tape_push %t1, %b
  %r2 = tape_rest %t2
  %v = tape_top %r2 {ty = f64}
  %r1 = tape_rest %r2
  %y = mul %v, %v
  ret %y
}
"""


@pytest.mark.parametrize("src, name, match", [
    (TRACE_SRC.split("func @tensor")[0].replace("  %r = tape_rest %t1\n", ""), "scalar",
     "tape_top %v has no tape_rest of its trace"),
    (LONE_REST_SRC, "lone_rest", "tape_rest %r2 has no tape_top of its trace"),
], ids=["tape_top", "tape_rest"])
def test_a_lone_tape_top_is_refused(src, name, match):
    # a pop is a tape_top and a tape_rest of one trace in one region.  With
    # no rest, the pullback has no place to send the top's cotangent, and
    # the gradient would read 0.0; with no top, it has no type for the
    # entry the rest drops, and a tensor entry got an f64 zero
    with pytest.raises(ADError, match=match):
        augment(parse_ir(src), name)


# an active trace read twice: @exit_twice's loop exit binds %t to %a and
# %b, and @forked pushes two entries onto %t1; each pops %x back twice,
# so both compute x * x.  @fresh_fork forks a fresh tape_new, which is
# inactive: it holds no varied entry
READ_TWICE_SRC = """
func @exit_twice(%x: f64) -> f64 {
^entry:
  %t0 = tape_new
  %t1 = tape_push %t0, %x
  %i0 = const i64 0
  %n = const i64 2
  jmp ^head(%i0, %t1)
^head(%i: i64, %t: tape):
  %more = lt %i, %n
  br %more, ^body(), ^exit(%t, %t)
^body:
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %t)
^exit(%a: tape, %b: tape):
  %u = tape_top %a {ty = f64}
  %ra = tape_rest %a
  %v = tape_top %b {ty = f64}
  %rb = tape_rest %b
  %y = mul %u, %v
  ret %y
}

func @forked(%x: f64, %z: f64) -> f64 {
^entry:
  %t0 = tape_new
  %t1 = tape_push %t0, %x
  %ta = tape_push %t1, %z
  %tb = tape_push %t1, %z
  %za = tape_top %ta {ty = f64}
  %ra = tape_rest %ta
  %u = tape_top %ra {ty = f64}
  %ra0 = tape_rest %ra
  %zb = tape_top %tb {ty = f64}
  %rb = tape_rest %tb
  %v = tape_top %rb {ty = f64}
  %rb0 = tape_rest %rb
  %y = mul %u, %v
  ret %y
}

func @fresh_fork(%x: f64) -> f64 {
^entry:
  %t0 = tape_new
  %ta = tape_push %t0, %x
  %tb = tape_push %t0, %x
  %u = tape_top %ta {ty = f64}
  %ra = tape_rest %ta
  %v = tape_top %tb {ty = f64}
  %rb = tape_rest %tb
  %y = mul %u, %v
  ret %y
}
"""


@pytest.mark.parametrize("name, args, trace", [("exit_twice", (1.5,), "t"),
                                               ("forked", (1.5, 0.5), "t1")],
                         ids=["exit_twice", "forked"])
def test_an_active_trace_read_twice_is_refused(name, args, trace):
    # a trace's cotangent is a trace, which no add can sum: keeping one of
    # the two would give 1.5 where the oracle, like d(x*x)/dx, gives 3.0
    m = parse_ir(READ_TWICE_SRC)
    assert list(trace_grad(m, name, args, (1.0,)).values())[0] == 3.0
    with pytest.raises(ADError, match=rf"@{name}: trace %{trace} is read twice"):
        augment(m, name)


def test_an_inactive_fork_still_differentiates():
    m = parse_ir(READ_TWICE_SRC)
    (g,) = grad(m, "fresh_fork", (1.5,)).values()
    (t,) = trace_grad(m, "fresh_fork", (1.5,), (1.0,)).values()
    (fd,) = finite_diff(m, "fresh_fork", (1.5,), (1.0,)).values()
    assert g == t == 3.0
    assert rel(g, fd) <= FD_TOL


# ----------------------------------------------------------- simplify


def _simplified(m: Module, name: str):
    """@name copied to @name_s through simplify and drop_dead, as the
    DAN step is built."""
    src = structurize(m.get(name), m)
    em = SEmitter(f"{name}_s", src.results, m)
    args = tuple(em.param(src.vnames.get(pv, "p"), ty) for pv, ty in src.params)
    fn = flatten(drop_dead(simplify(em.finish(splice_function(em, src, args)))))
    m.add(fn)
    return fn


def _walked_and_lowered(m: Module, fn, args) -> list:
    """fn's results on the walker and on its lowered code, as bits."""
    fn.tier.heat, fn.tier.code = math.inf, None
    walked = Machine(m).run(fn, args)
    lowered = lower(fn, m)(Machine(m), args)
    return [[bits(v) for v in out] for out in (walked, lowered)]


def test_simplify_keeps_every_bit_of_the_grad_wrappers():
    # @f__grad leaves its trace round trips to the walk; a simplified copy
    # gives the same bits on the walker and lowered, with fewer trace ops
    m = Module()
    before = after = 0
    for name, inputs in generate_suite(m, random.Random(7), 40, inputs_per=3):
        wrapper = build_grad_function(m, name)
        fn = _simplified(m, wrapper.name)
        before += sum(_ops(wrapper)[op] for op in ("tape_push", "tape_top", "tape_rest"))
        after += sum(_ops(fn)[op] for op in ("tape_push", "tape_top", "tape_rest"))
        for args in inputs:
            want = _walked_and_lowered(m, wrapper, args)
            assert want[0] == want[1]
            assert _walked_and_lowered(m, fn, args) == want, name
    assert verify(m) == []
    assert after < before / 2


SIMPLIFY_SRC = """
func @twolog(%x: f64) -> f64 {
^entry:
  %a = log %x
  %b = log %x
  %c = add %a, %b
  ret %c
}

func @scoped(%x: f64, %n: i64) -> f64 {
^entry:
  %o = exp %x
  %z = const f64 0.0
  %pos = gt %x, %z
  br %pos, ^a(), ^b()
^a:
  %i = exp %x
  %m = mul %x, %x
  %u = add %i, %m
  jmp ^join(%u)
^b:
  jmp ^join(%o)
^join(%v: f64):
  %m2 = mul %x, %x
  %i0 = const i64 0
  jmp ^head(%i0, %v)
^head(%k: i64, %acc: f64):
  %go = lt %k, %n
  br %go, ^body(), ^exit(%acc)
^body:
  %e = exp %x
  %s = tanh %x
  %a2 = add %acc, %e
  %a3 = add %a2, %s
  %one = const i64 1
  %k2 = add %k, %one
  jmp ^head(%k2, %a3)
^exit(%r: f64):
  %s2 = tanh %x
  %w = add %r, %m2
  %w2 = add %w, %s2
  %w3 = add %w2, %o
  ret %w3
}

func @retyped(%x: f64) -> f64 {
^entry:
  %t0 = tape_new
  %t1 = tape_push %t0, %x
  %v = tape_top %t1 {ty = i64}
  %r = tape_rest %t1
  %ok = tape_expect_empty %r
  %w = itof %v
  %s = add %w, %x
  ret %s
}

func @leftover(%x: f64) -> f64 {
^entry:
  %t0 = tape_new
  %t1 = tape_push %t0, %x
  %t2 = tape_push %t1, %x
  %v = tape_top %t2 {ty = f64}
  %r = tape_rest %t2
  %ok = tape_expect_empty %r
  ret %v
}

func @drained(%x: f64) -> f64 {
^entry:
  %t0 = tape_new
  %t1 = tape_push %t0, %x
  %v = tape_top %t1 {ty = f64}
  %r = tape_rest %t1
  %ok = tape_expect_empty %r
  %y = mul %v, %x
  ret %y
}

func @zeros(%x: f64) -> (f64, f64, f64) {
^entry:
  %p = const f64 0.0
  %n = const f64 -0.0
  %p2 = const f64 0.0
  %a = add %x, %p
  %b = add %x, %n
  %c = add %x, %p2
  ret %a, %b, %c
}
"""


def _error(m: Module, name: str, args) -> tuple:
    with pytest.raises(EvalError) as e:
        eval_function(m, name, args)
    return e.value.block, e.value.index, e.value.message


def test_simplify_merges_a_faulting_log_and_keeps_its_error():
    m = parse_ir(SIMPLIFY_SRC)
    fn = _simplified(m, "twolog")
    assert _ops(fn)["log"] == 1
    assert _walked_and_lowered(m, fn, (2.5,)) == _walked_and_lowered(m, m.get("twolog"), (2.5,))
    # the copy that stays is the first, which faults where the parent does
    assert _error(m, fn.name, (-1.0,)) == _error(m, "twolog", (-1.0,)) == (
        "entry", 0, "log of non-positive value -1.0")


def test_simplify_scopes_reuse_to_the_region():
    m = parse_ir(SIMPLIFY_SRC)
    fn = _simplified(m, "scoped")
    # the outer exp serves the arm and the loop body; the arm's mul and the
    # body's tanh do not serve the code after their regions
    assert _ops(fn)["exp"] == 1
    assert _ops(fn)["mul"] == 2 and _ops(fn)["tanh"] == 2
    for args in ((0.7, 3), (-0.4, 2), (1.1, 0)):
        assert _walked_and_lowered(m, fn, args) == _walked_and_lowered(m, m.get("scoped"), args)
    assert verify(m) == []


def test_simplify_forwards_only_a_top_of_the_pushed_type():
    m = parse_ir(SIMPLIFY_SRC)
    fn = _simplified(m, "retyped")
    assert verify(m) == []
    assert _ops(fn)["tape_top"] == 1
    assert eval_function(m, fn.name, (2.5,)) == eval_function(m, "retyped", (2.5,))


def test_simplify_keeps_a_check_on_a_trace_left_with_entries():
    m = parse_ir(SIMPLIFY_SRC)
    fn = _simplified(m, "leftover")
    assert _ops(fn) == Counter({"tape_new": 1, "tape_push": 1, "tape_expect_empty": 1})
    assert _error(m, fn.name, (2.5,))[::2] == _error(m, "leftover", (2.5,))[::2] == (
        "entry", "trace should be used up, 1 entries remain")
    # drained, the check cannot fault, and no trace op is left
    assert _ops(_simplified(m, "drained")) == Counter({"mul": 1})
    assert eval_function(m, "drained_s", (2.5,)) == (6.25,)


def test_simplify_tells_signed_zeros_apart():
    m = parse_ir(SIMPLIFY_SRC)
    fn = _simplified(m, "zeros")
    assert _ops(fn) == Counter({"const": 2, "add": 2})
    got = eval_function(m, fn.name, (-0.0,))
    assert [bits(v) for v in got] == [bits(v) for v in eval_function(m, "zeros", (-0.0,))] == [
        bits(0.0), bits(-0.0), bits(0.0)]
