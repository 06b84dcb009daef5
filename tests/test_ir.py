"""Parser, printer, and verifier behavior, including the corruption
kit used by the acceptance suite: every single-edit fault must draw at
least one diagnostic."""

import copy
import random

import pytest

from ssagrad import (DenseTensor, ParseError, StructureError, augment, batched_grad,
                     build_grad_function, grad, grad_of_grad, parse_ir, print_ir,
                     structurize, vectorize, verify)
from ssagrad.ir import Br, Jmp


def test_round_trip_identity(analytic):
    text = print_ir(analytic)
    assert print_ir(parse_ir(text)) == text


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
    # textual forward references within a function resolve in phase 2
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
