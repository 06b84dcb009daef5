"""Parser, printer, and verifier behavior, including the corruption
kit used by the acceptance suite: every single-edit fault must draw at
least one diagnostic."""

import ast
import copy
import hashlib
import itertools
import random
import re
from pathlib import Path

import pytest

from ssagrad import (ADError, DANConfig, DenseTensor, Module, ParseError, StructureError,
                     augment, batched_grad, build_grad_function, eval_function, flatten,
                     generate_suite, grad, grad_of_grad, parse_ir, print_ir, random_program,
                     stack_lanes, structurize, train, vectorize, verify)
from ssagrad.ir import F64, TAPE, Br, Diagnostic, Jmp, print_function
from ssagrad.nn_train import (_batch_tensors, _weight_args, build_loss_ir, build_step_ir,
                              init_params, make_synthetic)
from ssagrad.parser import _kind, _lex, _positions
from ssagrad.structure import SEmitter, SIf, SWhile, splice_function

from conftest import ANALYTIC_SRC, CORPUS_SEED, bits
from test_spmd import BATCH_SRC, RENAME_SRC


def test_round_trip_identity(analytic):
    text = print_ir(analytic)
    assert print_ir(parse_ir(text)) == text


def test_bool_attributes_round_trip():
    # no transform emits a bool attribute, so the printer's case is held here
    text = ("func @f(%x: f64) -> f64 {\n^entry:\n"
            "  %y = neg %x {off = false, on = true}\n  ret %y\n}\n")
    assert print_ir(parse_ir(text)) == text


# SHA-256 of the module test_generated_code_round_trips prints.  A change
# that alters emitted IR on purpose updates this constant and says why.
EMITTED_IR_SHA256 = "d9d026f747ffe6b7af625f1d6cffecd3e94df45f2ef6b9e822b92fdf4e3d36f5"
# SHA-256 of the same module's functions whose names hold no __batched_:
# augment, __grad and their adjoints.  A change to batching alone leaves it.
EMITTED_UNBATCHED_IR_SHA256 = "ff0fe94ce2aed8390982848301ec13725f957658b05c784cf4431cdf1245b104"


def test_generated_code_round_trips(tmp_path):
    # every function the transforms emit prints, re-parses to the same
    # text, and verifies: a corpus slice and the DAN loss, plus the
    # adjoints of each __grad, which run the structural trace adjoints;
    # the digest pins that text byte for byte
    module = Module()
    rng = random.Random(CORPUS_SEED)
    names = [random_program(module, rng, f"gen{i}").name for i in range(20)]
    cfg = DANConfig()
    names.append(build_loss_ir(module, (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes),
                               cfg.batch_size).name)
    emitted = []
    for name in names:
        aug, pb = augment(module, name)
        emitted += [aug.name, pb.name]
        if module.get(name).results == (F64,) and module.get(name).params[0][1] == F64:
            wrapper = build_grad_function(module, name).name
            emitted += [wrapper, *(f.name for f in augment(module, wrapper))]
        emitted += [vectorize(module, f, 8).name for f in (name, aug.name, pb.name)]
    assert sum(n.endswith("__grad") for n in emitted) >= 10
    text = print_ir(module)
    again = parse_ir(text)
    assert print_ir(again) == text
    assert verify(again) == []
    assert set(emitted) <= set(again.functions)
    _assert_digest(_unbatched_text(module), EMITTED_UNBATCHED_IR_SHA256, tmp_path,
                   "unbatched.ssair")
    _assert_digest(text, EMITTED_IR_SHA256, tmp_path)


def _unbatched_text(module: Module) -> str:
    return print_ir(Module({n: f for n, f in module.functions.items() if "__batched_" not in n}))


def _assert_digest(text: str, want: str, tmp_path: Path, fname: str = "emitted.ssair"):
    """Assert the SHA-256 of ``text``; on a mismatch the text is kept in
    a file named by the message, to diff against the expected output."""
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != want:
        (tmp_path / fname).write_text(text)
    assert got == want, f"digested text changed; it is in {tmp_path / fname}"


# SHA-256 of the modules test_transform_paths_off_the_corpus prints; it
# changes under the same rule as EMITTED_IR_SHA256
TRANSFORM_IR_SHA256 = "2c110fdb6fdbed6ebb1843705479d6882f410238233c386eeecb0321fd4601ca"
# and of their functions whose names hold no __batched_, as above
TRANSFORM_UNBATCHED_IR_SHA256 = "5769917abdf0a9cbfe800bcee8e0f755acc1fbe1bf62310b523b8d4af339934d"


def test_transform_paths_off_the_corpus(tmp_path):
    # the corpus has no call and no fused_map; the analytic fixture and
    # BATCH_SRC reach the inliner, the augmenter's fused_pack case,
    # uniform branches and constant-trip loops, and this digest pins them
    texts, unbatched, counts = [], [], {"aug": 0, "grad": 0}
    for src in (ANALYTIC_SRC, BATCH_SRC):
        module = parse_ir(src)
        for fn in list(module.functions.values()):
            names = [fn.name]
            try:
                names += [f.name for f in augment(module, fn.name)]
                counts["aug"] += 1
            except ADError:
                pass
            if fn.results == (F64,) and all(ty == F64 for _, ty in fn.params):
                build_grad_function(module, fn.name)
                counts["grad"] += 1
            for name in names:
                vectorize(module, name, 3)
        text = print_ir(module)
        assert print_ir(parse_ir(text)) == text
        texts.append(text)
        unbatched.append(_unbatched_text(module))
    assert counts == {"aug": 18, "grad": 10}
    _assert_digest("".join(unbatched), TRANSFORM_UNBATCHED_IR_SHA256, tmp_path,
                   "unbatched.ssair")
    _assert_digest("".join(texts), TRANSFORM_IR_SHA256, tmp_path)


# SHA-256 of @dan_minibatch_step_32 as print_ir prints it: the default
# training step, its forward pass, both pullbacks and the update.  It
# changes under the same rule as EMITTED_IR_SHA256.
STEP_IR_SHA256 = "96ca3114e3ef996bd9d13691ee45ebe71c58df0755784973c15de51ffb1b4730"


def test_default_step_is_pinned(tmp_path):
    # the pullback at each constant seed builds no adjoint code for the
    # loss seeded with 0.0, which leaves 142 instructions
    cfg = DANConfig()
    fn = build_step_ir(Module(), (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes),
                       cfg.batch_size)
    assert fn.name == "dan_minibatch_step_32"
    assert sum(len(b.body) for b in fn.blocks) == 142
    _assert_digest(print_ir(Module({fn.name: fn})), STEP_IR_SHA256, tmp_path, "step.ssair")


# SHA-256 of the gradient bits test_gradient_bits_are_pinned prints.  A
# change that rewrites emitted IR without meaning to move a float leaves it
# as it is; one that moves floats on purpose updates it and says why.
GRADIENT_BITS_SHA256 = "9b730f6fa37827f5c0273dc184eaeca949af68564965f7f4e10962cd77da7b71"


def test_gradient_bits_are_pinned(tmp_path):
    # grad and batched_grad at B=8 on a seed-7 corpus slice, batched_grad
    # at B=2 of the DAN loss (per-lane weights and data, so matmul and the
    # broadcast folds of its pullback run batched), and a 2-epoch train
    lines = []
    module = Module()
    for name, inputs in generate_suite(module, random.Random(7), 40, inputs_per=8):
        fn = module.get(name)
        lines += [f"{name} {[bits(v) for v in grad(module, name, args).values()]}"
                  for args in inputs]
        stacked = tuple(stack_lanes(ty, [a[i] for a in inputs])
                        for i, (_, ty) in enumerate(fn.params))
        bg = batched_grad(module, name, 8, stacked, (stack_lanes(F64, [1.0] * 8),))
        lines.append(f"{name} B8 {[bits(v) for v in bg.values()]}")
    cfg = DANConfig(epochs=2)
    sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    loss = build_loss_ir(module, sizes, 4)
    data = make_synthetic(cfg)
    lanes = [_weight_args(init_params(sizes, random.Random(k)))
             + _batch_tensors(data[4 * k:4 * k + 4]) + (cfg.lam,) for k in range(2)]
    stacked = tuple(stack_lanes(ty, [a[i] for a in lanes]) for i, (_, ty) in enumerate(loss.params))
    seeds = (stack_lanes(F64, [1.0, 0.5]), stack_lanes(F64, [0.25, 1.0]))
    bg = batched_grad(module, loss.name, 2, stacked, seeds)
    lines.append(f"dan B2 {[bits(v) for v in bg.values()]}")
    lines.append(train(cfg).to_jsonl())
    _assert_digest("\n".join(lines), GRADIENT_BITS_SHA256, tmp_path, "gradient_bits.txt")


# SHA-256 of the second-order bits test_second_order_bits_are_pinned
# prints; it changes under the same rule as GRADIENT_BITS_SHA256
SECOND_ORDER_BITS_SHA256 = "a910562be5803c14426aab9f7f339b5f3e2164bdf4e1ba2b77280a368ed12c56"


def test_second_order_bits_are_pinned(tmp_path):
    # @f__grad run forward, and its own gradient (what grad_of_grad takes
    # for a one-parameter f), on a seed-7 corpus slice and the analytic
    # fixture; a rewrite of @f__grad must move neither
    lines = []
    module = Module()
    suite = generate_suite(module, random.Random(7), 40, inputs_per=3)
    analytic = parse_ir(ANALYTIC_SRC)
    cases = [(module, name, inputs) for name, inputs in suite]
    cases += [(analytic, fn.name, [tuple(0.75 * (i + 1) for i, _ in enumerate(fn.params))])
              for fn in list(analytic.functions.values())
              if fn.results == (F64,) and all(ty == F64 for _, ty in fn.params)]
    for m, name, inputs in cases:
        wrapper = build_grad_function(m, name).name
        for args in inputs:
            first = eval_function(m, wrapper, args)
            second = grad(m, wrapper, args, (1.0,))
            lines.append(f"{name} {[bits(v) for v in first]} {[bits(v) for v in second.values()]}")
        if len(m.get(name).params) == 1:
            lines.append(f"{name} gg {bits(grad_of_grad(m, name, inputs[0][0]))}")
    assert sum(" gg " in line for line in lines) >= 4
    _assert_digest("\n".join(lines), SECOND_ORDER_BITS_SHA256, tmp_path, "second_order_bits.txt")


# SHA-256 of the printed seed-7 corpus that perfbench's corpus workloads
# generate.  It moves only when progen or the printer changes on purpose.
CORPUS_TEXT_SHA256 = "65e256a0afaa476e21defee4c0630139e03da853d5a194fb02b2858011f37fbd"


def test_corpus_text_is_pinned(tmp_path):
    module = Module()
    generate_suite(module, random.Random(7), 200)
    _assert_digest(print_ir(module), CORPUS_TEXT_SHA256, tmp_path, "corpus.ssair")


# SHA-256 of the accepted inputs test_corpus_inputs_are_pinned prints: each
# program's name and the exact bits of its inputs.  It moves only when
# progen's sampling or its accept rule changes on purpose.
CORPUS_INPUTS_SHA256 = "8d3647163edaeb29f2a93b29ee60880f63f50b2898ded8879f2fd0b511dfbb37"


def test_corpus_inputs_are_pinned(corpus, tmp_path):
    # the session corpus and the first part of perfbench's seed-7 corpus
    lines = []
    for label, suite in (("corpus", corpus[1]),
                         ("seed7", generate_suite(Module(), random.Random(21), 200))):
        lines.append(label)
        lines += [f"{name} {[bits(a) for a in args]}" for name, inputs in suite for args in inputs]
    _assert_digest("\n".join(lines), CORPUS_INPUTS_SHA256, tmp_path, "corpus_inputs.txt")


def test_print_is_canonical():
    # odd whitespace and blank lines normalize away on the first print
    src = """
func   @f( %x: f64 ) -> f64 {
^entry:

  %y = add %x , %x
  ret %y
}
"""
    text = print_ir(parse_ir(src))
    assert print_ir(parse_ir(text)) == text
    assert "  %y = add %x, %x\n" in text


def test_verify_clean(analytic):
    assert verify(analytic) == []


def test_function_order_preserved(analytic):
    names = list(analytic.functions)
    reparsed = parse_ir(print_ir(analytic))
    assert list(reparsed.functions) == names


def test_parse_undefined_value():
    with pytest.raises(ParseError, match="undefined value"):
        parse_ir("func @f(%x: f64) -> f64 {\n^entry:\n  ret %y\n}\n")


def test_parse_duplicate_name():
    src = ("func @f(%x: f64) -> f64 {\n^entry:\n"
           "  %a = add %x, %x\n  %a = mul %x, %x\n  ret %a\n}\n")
    with pytest.raises(ParseError):
        parse_ir(src)


def test_parse_garbage():
    with pytest.raises(ParseError):
        parse_ir("funk @f() -> f64 {}")
    with pytest.raises(ParseError):
        parse_ir("func @f(%x: f32) -> f64 {\n^entry:\n  ret %x\n}\n")


def test_parse_forward_reference_ok():
    # a value gets its id when first named, so textual forward
    # references parse and are left to the verifier
    src = """
func @f(%x: f64) -> f64 {
^entry:
  jmp ^b()
^b:
  %y = add %x, %x
  ret %y
}
"""
    m = parse_ir(src)
    assert verify(m) == []


def test_value_name(analytic):
    fn = analytic.get("prod")
    pv, _ = fn.params[0]
    assert fn.value_name(pv) == "x"


def test_module_get_missing(analytic):
    with pytest.raises(KeyError):
        analytic.get("ghost")


# ------------------------------------------------- corruption helpers

def corrupt_swap_operand(fn, rng):
    """Point one operand at the instruction's own result."""
    cands = [i for b in fn.blocks for i in b.body if i.operands]
    if not cands:
        return False
    ins = rng.choice(cands)
    k = rng.randrange(len(ins.operands))
    ins.operands = ins.operands[:k] + (ins.result,) + ins.operands[k + 1:]
    return True


def corrupt_delete_terminator(fn, rng):
    b = rng.choice(fn.blocks)
    b.term = None
    return True


def corrupt_retarget_branch(fn, rng):
    cands = [b for b in fn.blocks if isinstance(b.term, (Jmp, Br))]
    if not cands:
        return False
    b = rng.choice(cands)
    if isinstance(b.term, Jmp):
        b.term.target = "__nowhere"
    else:
        b.term.then_target = "__nowhere"
    return True


CORRUPTIONS = (corrupt_swap_operand, corrupt_delete_terminator,
               corrupt_retarget_branch)


@pytest.mark.parametrize("corrupt", CORRUPTIONS,
                         ids=lambda c: c.__name__.removeprefix("corrupt_"))
def test_single_edit_corruption_caught(analytic, corrupt):
    rng = random.Random(5)
    for name in ("prod", "cube", "absval", "net"):
        m = copy.deepcopy(analytic)
        if corrupt(m.get(name), rng):
            assert verify(m), f"{corrupt.__name__} on @{name} slipped through"


def test_diagnostic_format():
    src = """
func @f(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = lt %x, %z
  br %c, ^a(), ^b()
^a:
  %t = add %x, %x
  jmp ^join()
^b:
  jmp ^join()
^join:
  ret %t
}
"""
    m = parse_ir(src)
    diags = verify(m)
    assert len(diags) == 1
    d = diags[0]
    assert d.function == "f" and d.block == "join"
    assert str(d) == "@f ^join: %t does not dominate its use"


def test_one_predecessor_jumps_are_renames():
    # such a jump is no tree node: the block's parameters read as the
    # jump's arguments, and untouched instructions are shared
    m = parse_ir("""
func @f(%x: f64) -> f64 {
^entry:
  %a = mul %x, %x
  jmp ^b(%a, %x)
^b(%p: f64, %q: f64):
  %s = add %p, %q
  jmp ^c(%s)
^c(%r: f64):
  ret %r
}
""")
    fn = m.get("f")
    x, a, s = fn.params[0][0], fn.blocks[0].body[0].result, fn.blocks[1].body[0].result
    sf = structurize(fn, m)
    assert [n.ins.operands for n in sf.region] == [(x, x), (a, x)]
    assert sf.region[0].ins is fn.blocks[0].body[0]
    assert sf.ret_vals == (s,)
    assert len(flatten(sf).blocks) == 1


# ------------------------------------- ill-formed code at every entry point

ILL_FORMED = {
    "not_dominated": ("""
func @f(%x: f64) -> f64 {
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
  ret %y
}
""", "@f ^join: %y does not dominate its use"),
    "edge_arity": ("""
func @f(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  jmp ^b(%x, %z)
^b(%v: f64):
  ret %v
}
""", "@f ^entry: edge to ^b passes 2 args for 1 params"),
    "ret_type": ("""
func @f(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  ret %c
}
""", "@f ^entry: ret value %c has type bool, want f64"),
    "br_condition_type": ("""
func @f(%x: f64) -> f64 {
^entry:
  br %x, ^a(), ^b()
^a:
  jmp ^join(%x)
^b:
  %n = neg %x
  jmp ^join(%n)
^join(%v: f64):
  ret %v
}
""", "@f ^entry: br condition %x has type f64, want bool"),
    # the parser rejects a duplicate name, so the second definition is
    # made in memory below
    "duplicate_definition": ("""
func @f(%x: f64) -> f64 {
^entry:
  %a = mul %x, %x
  %b = add %a, %x
  ret %b
}
""", "@f ^entry: %a defined more than once"),
    "use_before_definition": ("""
func @f(%x: f64) -> f64 {
^entry:
  %b = add %a, %x
  %a = mul %x, %x
  ret %b
}
""", "@f ^entry: %a used before its definition"),
    # ^y's arms loop forever and never reach the ret
    "never_reconverge": ("""
func @f(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = lt %x, %z
  br %c, ^a(), ^q()
^a:
  br %c, ^t(), ^y()
^q:
  jmp ^t()
^t:
  ret %x
^y:
  br %c, ^y1(), ^y2()
^y1:
  jmp ^w()
^y2:
  jmp ^w()
^w:
  jmp ^w2()
^w2:
  jmp ^w()
}
""", "@f ^y: branch arms never reconverge"),
}


def _ill_formed(case):
    m = parse_ir(ILL_FORMED[case][0])
    if case == "duplicate_definition":
        body = m.get("f").blocks[0].body
        body[1].result = body[0].result
    return m


def _lanes(*xs):
    return DenseTensor.from_flat((len(xs),), list(xs))


ENTRY_POINTS = {
    "structurize": lambda m: structurize(m.get("f"), m),
    "augment": lambda m: augment(m, "f"),
    "grad": lambda m: grad(m, "f", (1.0,)),
    "build_grad_function": lambda m: build_grad_function(m, "f"),
    "grad_of_grad": lambda m: grad_of_grad(m, "f", 1.0),
    "vectorize": lambda m: vectorize(m, "f", 2),
    "batched_grad": lambda m: batched_grad(m, "f", 2, (_lanes(1.0, 2.0),), (_lanes(1.0, 1.0),)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", ILL_FORMED)
def test_entry_points_reject_what_verify_rejects(case, entry):
    diags = verify(_ill_formed(case))
    assert [str(d) for d in diags] == [ILL_FORMED[case][1]]
    with pytest.raises(StructureError) as info:
        ENTRY_POINTS[entry](_ill_formed(case))
    assert str(info.value.diagnostic) == str(diags[0])


# ----------------------------------------------- structurizer diagnostics


def _cfg(text):
    """@f(%x: f64) -> f64 with one block per line of ``text``, written
    "name: terminator"; the entry block defines the bool %c."""
    lines = ["func @f(%x: f64) -> f64 {"]
    for i, line in enumerate(text.strip().splitlines()):
        name, term = line.split(":", 1)
        lines += [f"^{name.strip()}:"] + ["  %c = lt %x, %x"] * (i == 0) + ["  " + term.strip()]
    return "\n".join(lines + ["}"]) + "\n"


# each raise of the block-graph checks, the back-edge check and the tree
# recovery on a minimal function, but "never reconverge" (ILL_FORMED) and
# "ret inside a structured region", which no function is known to reach;
# the parser rejects the first four, so an edit after parsing makes them
CFG_FAULTS = {
    "no_blocks": ("entry: ret %x", lambda fn: fn.blocks.clear(), "", "function has no blocks"),
    "duplicate_block_name": ("entry: jmp ^a()\na: jmp ^b()\nb: ret %x",
                             lambda fn: setattr(fn.blocks[2], "name", "a"), "a",
                             "duplicate block name"),
    "missing_terminator": ("entry: jmp ^a()\na: ret %x",
                           lambda fn: setattr(fn.blocks[1], "term", None), "a",
                           "missing terminator"),
    "unknown_target": ("entry: jmp ^a()\na: ret %x",
                       lambda fn: setattr(fn.blocks[0].term, "target", "nowhere"), "entry",
                       "terminator targets unknown block ^nowhere"),
    "unreachable_block": ("entry: ret %x\ndead: ret %x", None, "dead", "unreachable block"),
    "entry_predecessors": ("entry: br %c, ^entry(), ^b()\nb: ret %x", None,
                           "entry", "entry block has predecessors"),
    "conditional_back_edge": ("entry: jmp ^h()\nh: br %c, ^h(), ^x()\nx: ret %x", None,
                              "h", "back edges must be unconditional jumps"),
    "multiple_back_edges": ("""
entry: jmp ^h()
h: br %c, ^a(), ^x()
a: br %c, ^l1(), ^l2()
l1: jmp ^h()
l2: jmp ^h()
x: ret %x""", None, "h", "multiple back edges"),
    "self_loop": ("entry: br %c, ^h(), ^x()\nh: jmp ^h()\nx: ret %x", None, "h", "self loop"),
    "header_predecessors": ("""
entry: br %c, ^a(), ^b()
a: br %c, ^h(), ^r()
b: jmp ^h()
h: br %c, ^l(), ^x()
l: jmp ^h()
x: jmp ^r()
r: ret %x""", None, "h", "loop header must have two predecessors"),
    "header_jumps": ("""
entry: jmp ^h()
h: jmp ^b()
b: br %c, ^l(), ^x()
l: jmp ^h()
x: ret %x""", None, "h", "loop header must end in br"),
    "body_and_exit_mixed": ("""
entry: jmp ^h()
h: br %c, ^a(), ^b()
a: br %c, ^l(), ^x()
b: jmp ^l()
l: jmp ^h()
x: ret %x""", None, "h", "cannot split loop body from exit"),
    "body_on_else_edge": ("entry: jmp ^h()\nh: br %c, ^x(), ^l()\nl: jmp ^h()\nx: ret %x", None,
                          "h", "loop body must sit on the taken branch edge"),
    "exit_predecessors": ("""
entry: br %c, ^p(), ^x()
p: jmp ^h()
h: br %c, ^l(), ^x()
l: jmp ^h()
x: ret %x""", None, "x", "loop exit must have one predecessor"),
    "unstructured_merge": ("""
entry: br %c, ^a(), ^b()
a: br %c, ^m(), ^j()
b: jmp ^m()
m: jmp ^j()
j: ret %x""", None, "m", "unstructured merge point"),
    "join_predecessors": ("""
entry: br %c, ^a(), ^b()
a: br %c, ^j(), ^c()
b: jmp ^j()
c: jmp ^j()
j: ret %x""", None, "j", "join must have two predecessors"),
    # the loop is left from ^a straight to the ret
    "exit_from_body": ("""
entry: jmp ^h()
h: br %c, ^a(), ^x()
a: br %c, ^l(), ^r()
l: jmp ^h()
x: jmp ^r()
r: ret %x""", None, "h", "loop exits from inside its body"),
}


@pytest.mark.parametrize("case", CFG_FAULTS)
def test_structurizer_diagnostics(case):
    text, edit, block, message = CFG_FAULTS[case]
    m = parse_ir(_cfg(text))
    if edit:
        edit(m.get("f"))
    assert verify(m) == [Diagnostic("f", block, message)]


# ------------------------------------------------- parser diagnostics

PARSE_FAULTS = {
    "undefined_ret_operand": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  ret %nope\n}\n",
        3, 7, "use of undefined value %nope"),
    "redefined_block_param": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  jmp ^b(%x)\n^b(%x: f64):\n  ret %x\n}\n",
        4, 4, "redefinition of %x"),
    "no_blocks": ("func @f(%x: f64) -> f64 { }", 1, 27, "expected '^', got '}'"),
    "zero_lanes": (
        "func @f(%t: tapes<0>) -> f64 {\n^entry:\n  %z = const f64 0.0\n  ret %z\n}\n",
        1, 19, "tapes lane count must be positive"),
    "undefined_branch_condition": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  br %c, ^a(), ^nowhere()\n^a:\n  ret %x\n}\n",
        3, 6, "use of undefined value %c"),
    "unknown_jump_target": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  jmp ^b(%x)\n^c(%y: f64):\n  ret %y\n}\n",
        3, 7, "jump to unknown block ^b"),
    # found once the type is read, and reported at the op before it
    "tape_constant": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  %t = const tape 0\n  ret %x\n}\n",
        3, 8, "constants of type tape are not allowed"),
    "tapes_constant": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  %t = const tapes<2> 0\n  ret %x\n}\n",
        3, 8, "constants of type tapes<2> are not allowed"),
    "zero_extent": (
        "func @f(%x: tensor<0xf64>) -> f64 {\n^entry:\n  %z = const f64 0.0\n  ret %z\n}\n",
        1, 13, "tensor extents must be positive"),
    "redefined_block": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  jmp ^b()\n^b:\n  jmp ^b()\n^b:\n  ret %x\n}\n",
        6, 1, "redefinition of block ^b"),
    "entry_block_params": (
        "func @f(%x: f64) -> f64 {\n^entry(%y: f64):\n  ret %x\n}\n",
        2, 2, "entry block takes its parameters from the function header"),
    "duplicate_function": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  ret %x\n}\n"
        "func @f(%x: f64) -> f64 {\n^entry:\n  ret %x\n}\n",
        5, 1, "duplicate function name @f"),
    "lane_count_not_integer": (
        "func @f(%t: tapes<x>) -> f64 {\n^entry:\n  %z = const f64 0.0\n  ret %z\n}\n",
        1, 19, "expected integer lane count"),
    "const_not_a_number": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  %z = const f64 abc\n  ret %z\n}\n",
        3, 18, "expected number"),
    "unknown_type": ("func @f(%x: f32) -> f64 {\n^entry:\n  ret %x\n}\n",
                     1, 13, "unknown type literal"),
    "bad_attribute_value": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  %y = pow_int %x {n = %x}\n  ret %y\n}\n",
        3, 24, "expected attribute value"),
    "bool_not_true_or_false": (
        "func @f(%x: f64) -> f64 {\n^entry:\n  %b = const bool 1\n  ret %x\n}\n",
        3, 19, "expected true or false"),
    "no_func": ("fun @f(%x: f64) -> f64 {\n^entry:\n  ret %x\n}\n", 1, 1, "expected 'func'"),
    "junk_after_function": ("func @f(%x: f64) -> f64 {\n^entry:\n  ret %x\n}\nret\n",
                            5, 1, "expected 'func' or end of input"),
    "value_name_missing": ("func @f(%1x: f64) -> f64 {\n^entry:\n  ret %x\n}\n",
                           1, 10, "expected value name"),
}


@pytest.mark.parametrize("case", PARSE_FAULTS)
def test_parse_error_points_at_its_token(case):
    text, line, col, message = PARSE_FAULTS[case]
    with pytest.raises(ParseError) as info:
        parse_ir(text)
    assert (info.value.line, info.value.col, info.value.message) == (line, col, message)


_ROOT = Path(__file__).resolve().parents[1]
_FUZZ_TOKEN = re.compile(
    r"\s+|//[^\n]*|tensor<[0-9x]+xf64>|-?[0-9][0-9.eE+-]*|[A-Za-z_][A-Za-z0-9_]*|->|\S")


def _module_texts() -> list[str]:
    """Every module text written in the test files, and the benchmark's fused module."""
    texts = []
    for path in sorted(_ROOT.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "func @" in node.value:
                texts.append(node.value)
    texts.append((_ROOT / "perfbench" / "fused.ssair").read_text())
    return texts


def _token_mutations():
    """3,000 seeded single-token deletes, duplicates, replacements and truncations."""
    rng = random.Random(20261018)
    sources = [_FUZZ_TOKEN.findall(t) for t in _module_texts()]
    for _ in range(3000):
        toks = list(rng.choice(sources))
        spots = [i for i, t in enumerate(toks) if not t.isspace() and not t.startswith("//")]
        i = rng.choice(spots)
        edit = rng.randrange(4)
        if edit == 0:
            toks[i] = ""
        elif edit == 1:
            toks[i] += " " + toks[i]
        elif edit == 2:
            toks[i] = toks[rng.choice(spots)]
        else:
            del toks[i:]
        yield "".join(toks)


def test_parser_fuzz_gives_module_or_located_error():
    outcomes = {"module": 0, "error": 0}
    for text in _token_mutations():
        try:
            assert isinstance(parse_ir(text), Module)
            outcomes["module"] += 1
        except ParseError as e:
            assert e.line >= 1 and e.col >= 1, str(e)
            outcomes["error"] += 1
    assert min(outcomes.values()) > 50, outcomes


# A per-token lexer: one regex match per token, whitespace included.
# parser._lex, with each token's kind from parser._kind and its line and
# column from parser._positions, must agree with it token for token and
# error for error.
_ORACLE_TOKEN = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<tensor>tensor<[0-9]+(?:x[0-9]+)*xf64>)
    | (?P<num>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|-inf)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<arrow>->)
    | (?P<punct>[@%^(){}\[\],:=<>])
    """,
    re.VERBOSE,
)


def _oracle_lex(src):
    toks = []
    pos, line, bol = 0, 1, 0
    while pos < len(src):
        m = _ORACLE_TOKEN.match(src, pos)
        if m is None:
            raise ParseError(line, pos - bol + 1, f"unexpected character {src[pos]!r}")
        kind = m.lastgroup or ""
        text = m.group()
        if kind != "ws":
            toks.append((kind, text, line, m.start() - bol + 1))
        nl = text.count("\n")
        if nl:
            line += nl
            bol = m.start() + text.rindex("\n") + 1
        pos = m.end()
    toks.append(("eof", "", line, len(src) - bol + 1))
    return toks


def _lexed(lex, text):
    try:
        return lex(text)
    except ParseError as e:
        return (e.line, e.col, e.message)


def _lex_located(src):
    return [(_kind(text), text, line, col)
            for (_, text), (_, line, col) in zip(_lex(src), _positions(src), strict=True)]


def _char_insertions():
    """Each piece at 8 seeded places in every module text: whitespace that
    columns count, a comment, prefixes of several token kinds, non-ASCII."""
    rng = random.Random(20261019)
    texts = _module_texts()
    for piece in ("\t", "\r", "//x\n", "-", "->", "-inf", "1e5", "tensor<", "\u00e9", "\u00a0"):
        for text in texts:
            for _ in range(8):
                i = rng.randrange(len(text) + 1)
                yield text[:i] + piece + text[i:]


def test_lexer_matches_per_token_oracle():
    errors = 0
    for text in itertools.chain(_token_mutations(), _char_insertions()):
        want = _lexed(_oracle_lex, text)
        assert _lexed(_lex_located, text) == want, text
        errors += isinstance(want, tuple)
    assert errors > 1000, errors


# ------------------------------------------------------- fresh names


def _names(em, *names):
    return [em.vnames[em.fresh(n, F64)] for n in names]


def test_fresh_takes_the_smallest_free_suffix():
    em = SEmitter("f", (F64,))
    assert _names(em, *["g"] * 1000) == ["g"] + [f"g_{k}" for k in range(1, 1000)]
    em = SEmitter("f", (F64,))
    assert _names(em, "g_5", *["g"] * 7) == ["g_5", "g", "g_1", "g_2", "g_3", "g_4", "g_6", "g_7"]
    em = SEmitter("f", (F64,))
    assert _names(em, "g", "g", "g_1", "g_1", "g") == ["g", "g_1", "g_1_1", "g_1_2", "g_2"]
    em = SEmitter("f", (F64,))
    assert _names(em, "g", "h", "g", "h", "h", "g") == ["g", "h", "g_1", "h_1", "h_2", "g_2"]


def _loops(nodes: list):
    for n in nodes:
        if isinstance(n, SIf):
            yield from _loops(n.then_region + n.else_region)
        elif isinstance(n, SWhile):
            yield n
            yield from _loops(n.body_region)


def test_structurize_rotates_every_loop_header_away():
    # the seed-7 corpus, its __aug/__pb and the B=8 batched forms of all
    # three: their flat loop headers hold instructions, and no tree that
    # structurize returns for them does
    module = Module()
    corpus, names = [], []
    for name, _ in generate_suite(module, random.Random(7), 200):
        fs = [name, *(f.name for f in augment(module, name))]
        corpus.append(name)
        names += fs + [vectorize(module, f, 8).name for f in fs]
    headers = {}
    for name in names:
        fn = module.get(name)
        headers[name] = [b.body for b in fn.blocks if b.name.startswith("head") and b.body]
        assert all(node.header == [] for node in _loops(structurize(fn, module).region)), name
    # each corpus loop header is one lt: 242 loops in 151 programs
    assert sum(len(headers[n]) for n in corpus) == 242
    assert sum(bool(headers[n]) for n in corpus) == 151
    assert all(len(h) == 1 and h[0].op == "lt" for n in corpus for h in headers[n])
    assert sum(map(len, headers.values())) > 242


def test_copier_refuses_a_loop_header():
    # only code builders fill SWhile.header; a copy would drop it
    em = SEmitter("f", (F64,))
    x = em.param("x", F64)
    i = em.fresh("i", F64)
    em.push_region()
    go = em.emit("lt", (i, x), None, "go")
    header = [n.ins for n in em.pop_region()]
    r = em.fresh("r", F64)
    em.append(SWhile([(i, F64)], (x,), header, go, [], (i,), [(r, F64)], (i,)))
    sf = em.finish((r,))
    out = SEmitter("g", (F64,))
    with pytest.raises(AssertionError, match="rotates loop headers away"):
        splice_function(out, sf, (out.param("x", F64),))


@pytest.mark.parametrize("src", ["analytic", "batch", "rename"])
def test_splicing_a_function_clones_it(src):
    # splice_function copies every node kind, including the loop whose
    # exit reads its header, which the corpus never produces
    m = parse_ir({"analytic": ANALYTIC_SRC, "batch": BATCH_SRC, "rename": RENAME_SRC}[src])
    for fn in m.functions.values():
        sf = structurize(fn, m)
        em = SEmitter(fn.name, sf.results, m)
        params = tuple(em.param(sf.vnames[pv], ty) for pv, ty in sf.params)
        clone = flatten(em.finish(splice_function(em, sf, params)))
        assert print_function(clone) == print_function(flatten(sf))


# ---------------------------------------------- type-rule diagnostics

TYPED_SRC = """
func @f(%x: f64, %i: i64, %b: bool, %v: tensor<3xf64>, %c: tensor<2xf64>,
        %m: tensor<2x3xf64>, %l: tensor<2x3x3xf64>, %t: tape, %ts: tapes<2>) -> f64 {
^entry:
  INSTR
  ret %x
}

func @sq(%a: f64) -> f64 {
^entry:
  %r = mul %a, %a
  ret %r
}

func @mul2(%a: f64, %d: f64) -> f64 {
^entry:
  %r = mul %a, %d
  ret %r
}

func @two(%a: f64) -> (f64, f64) {
^entry:
  ret %a, %a
}
"""


def _const_tape(ins):
    ins.attrs["ty"] = TAPE


# one ill-typed instruction per result_type rejection: (instruction,
# in-memory edit or None, message)
TYPE_FAULTS = {
    "const_type": ("%y = const f64 1.0", _const_tape,
                   "const needs ty in {f64, i64, bool, tensor<...>}"),
    "const_count": ("%y = const tensor<3xf64> [1.0]", None, "const tensor<3xf64> needs 3 values"),
    "arity": ("%y = neg %x, %x", None, "neg takes 1 operand(s), got 2"),
    "arith_kind": ("%y = add %b, %x", None, "add on bool and f64"),
    "arith_shapes": ("%y = add %v, %c", None, "add: shapes (3,) and (2,) do not broadcast"),
    "i64_div": ("%y = div %i, %i", None, "div is not defined on i64"),
    "neg_kind": ("%y = neg %b", None, "neg on bool"),
    "unary_kind": ("%y = exp %i", None, "exp on i64"),
    "pow_int_n": ("%y = pow_int %x {n = -1}", None,
                  "pow_int needs attribute n = non-negative integer"),
    "pow_int_kind": ("%y = pow_int %i {n = 2}", None, "pow_int on i64"),
    "itof_kind": ("%y = itof %x", None, "itof on f64"),
    "compare_kind": ("%y = lt %i, %x", None, "lt on i64 and f64"),
    "select_arms": ("%y = select %b, %x, %i", None, "select arms differ: f64 vs i64"),
    "select_traces": ("%y = select %v, %ts, %ts", None,
                      "select on tensor<3xf64>, tapes<2>, tapes<2>"),
    "select_condition": ("%y = select %x, %x, %x", None,
                         "select condition must be bool or mask tensor, got f64"),
    "matmul_kind": ("%y = matmul %x, %m", None, "matmul on f64, tensor<2x3xf64>"),
    "matmul_extents": ("%y = matmul %m, %m", None, "matmul inner extents differ: (2, 3) x (2, 3)"),
    "bmm_kind": ("%y = matmul %l, %m", None, "matmul on tensor<2x3x3xf64>, tensor<2x3xf64>"),
    "transpose_rank": ("%y = transpose %v", None, "transpose on tensor<3xf64>"),
    "shape_attr": ("%y = reshape %v", None, "reshape needs attribute shape = [positive extents]"),
    "reshape_kind": ("%y = reshape %x {shape = [1]}", None, "reshape on f64"),
    "reshape_count": ("%y = reshape %v {shape = [2]}", None,
                      "reshape (3,) to (2,) changes element count"),
    "reduce_sum_kind": ("%y = reduce_sum %x {axis = all}", None, "reduce_sum on f64"),
    "reduce_sum_axis": ("%y = reduce_sum %v {axis = 1}", None,
                        "reduce_sum axis must be all or an axis of tensor<3xf64>"),
    "bcast_shape": ("%y = bcast %v {shape = [2]}", None, "bcast of tensor<3xf64> to (2,)"),
    "reduce_to_shape": ("%y = reduce_to %v {shape = [2]}", None, "unknown op 'reduce_to'"),
    "stack_empty": ("%y = stack", None, "stack needs at least one operand"),
    "stack_kind": ("%y = stack %x, %x", None, "stack of ['f64', 'f64']"),
    "stack_axis": ("%y = stack %v, %v {axis = 2}", None,
                   "stack axis 2 out of range for tensor<3xf64>"),
    "stack_axis_bool": ("%y = stack %v, %v {axis = true}", None,
                        "stack axis True out of range for tensor<3xf64>"),
    "unstack_kind": ("%y = unstack %x {index = 0}", None, "unstack on f64"),
    "unstack_axis": ("%y = unstack %v {axis = 1, index = 0}", None,
                     "unstack axis 1 out of range for tensor<3xf64>"),
    "unstack_index": ("%y = unstack %v {index = 3}", None,
                      "unstack index 3 out of range for tensor<3xf64> axis 0"),
    "unstack_axis_bool": ("%y = unstack %m {axis = true, index = true}", None,
                          "unstack axis True out of range for tensor<2x3xf64>"),
    "unstack_index_bool": ("%y = unstack %v {index = true}", None,
                           "unstack index True out of range for tensor<3xf64> axis 0"),
    "fn_attr": ("%y = fused_map %x", None, "fused_map needs attribute fn = @function"),
    "fn_unknown": ("%y = fused_map %x {fn = @nowhere}", None,
                   "fused_map: unknown function @nowhere"),
    "fused_map_callee": ("%y = fused_map %x {fn = @two}", None,
                         "fused_map: @two must map f64 parameters to one f64 result"),
    "fused_map_arity": ("%y = fused_map %x, %x {fn = @sq}", None,
                        "fused_map: @sq takes 1 args, got 2"),
    "fused_map_shapes": ("%y = fused_map %v, %c {fn = @mul2}", None,
                         "fused_map: shapes (3,) and (2,) do not broadcast"),
    "fused_map_kind": ("%y = fused_map %i {fn = @sq}", None, "fused_map operand of type i64"),
    "call_results": ("%y = call %x {fn = @two}", None, "call: @two must have exactly one result"),
    "call_operands": ("%y = call %i {fn = @sq}", None,
                      "call @sq: operand types ['i64'] do not match parameters ['f64']"),
    "tape_new_arity": ("%y = tape_new %t", None, "tape_new takes 0 operand(s), got 1"),
    "tape_new_lanes": ("%y = tape_new {lanes = 0}", None,
                       "tape_new needs attribute lanes = positive integer"),
    "tape_new_lanes_bool": ("%y = tape_new {lanes = true}", None,
                            "tape_new needs attribute lanes = positive integer"),
    "push_lanes": ("%y = tape_push %ts, %v", None,
                   "tape_push of tensor<3xf64> onto tapes<2> needs a leading 2"),
    "push_kind": ("%y = tape_push %x, %x", None, "tape_push onto f64"),
    "top_ty": ("%y = tape_top %t", None, "tape_top needs attribute ty = type"),
    "top_lanes": ("%y = tape_top %ts {ty = f64}", None,
                  "tape_top of f64 from tapes<2> needs a leading 2"),
    "top_kind": ("%y = tape_top %x {ty = f64}", None, "tape_top on f64"),
    "rest_kind": ("%y = tape_rest %x", None, "tape_rest on f64"),
    "expect_empty_kind": ("%y = tape_expect_empty %x", None, "tape_expect_empty on f64"),
    "unknown_op": ("%y = frobnicate %x", None, "unknown op 'frobnicate'"),
}


@pytest.mark.parametrize("case", TYPE_FAULTS)
def test_type_rule_diagnostics(case):
    instr, edit, message = TYPE_FAULTS[case]
    m = parse_ir(TYPED_SRC.replace("INSTR", instr))
    if edit is not None:
        edit(m.get("f").blocks[0].body[0])
    assert [str(d) for d in verify(m)] == [f"@f ^entry: %y: {message}"]
