import random

import pytest

from ssagrad import Module, generate_suite, parse_ir

# Small hand-written module exercised across the suite: straight-line,
# loop, branch, tensor, call, and fused_map code paths.
ANALYTIC_SRC = """
func @prod(%x: f64, %y: f64) -> f64 {
^entry:
  %p = mul %x, %y
  ret %p
}

func @cube(%x: f64) -> f64 {
^entry:
  %i0 = const i64 0
  %n = const i64 3
  %a0 = const f64 1.0
  jmp ^head(%i0, %a0)
^head(%i: i64, %acc: f64):
  %more = lt %i, %n
  br %more, ^body(), ^exit(%acc)
^body:
  %a2 = mul %acc, %x
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %a2)
^exit(%r: f64):
  ret %r
}

func @absval(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %pos = gt %x, %z
  br %pos, ^a(), ^b()
^a:
  jmp ^join(%x)
^b:
  %nx = neg %x
  jmp ^join(%nx)
^join(%v: f64):
  ret %v
}

func @powloop(%x: f64, %n: i64) -> f64 {
^entry:
  %i0 = const i64 0
  %a0 = const f64 1.0
  jmp ^head(%i0, %a0)
^head(%i: i64, %acc: f64):
  %more = lt %i, %n
  br %more, ^body(), ^exit(%acc)
^body:
  %a2 = mul %acc, %x
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %a2)
^exit(%r: f64):
  ret %r
}

func @net(%w: tensor<2x3xf64>, %v: tensor<3x1xf64>) -> f64 {
^entry:
  %h = matmul %w, %v
  %s = tanh %h
  %l = reduce_sum %s {axis = all}
  ret %l
}

func @sq(%t: f64) -> f64 {
^entry:
  %s = mul %t, %t
  ret %s
}

func @callin(%x: f64) -> f64 {
^entry:
  %a = call %x {fn = @sq}
  %b = call %a {fn = @sq}
  ret %b
}

func @gauss(%a: f64, %c: f64) -> f64 {
^entry:
  %p = mul %a, %c
  %n = neg %p
  %e = exp %n
  %one = const f64 1.0
  %d = add %one, %e
  %r = div %one, %d
  ret %r
}

func @mapped(%x: tensor<4xf64>, %b: f64) -> f64 {
^entry:
  %y = fused_map %x, %b {fn = @gauss}
  %s = reduce_sum %y {axis = all}
  ret %s
}
"""

CORPUS_SEED = 20260822


@pytest.fixture
def analytic() -> Module:
    return parse_ir(ANALYTIC_SRC)


@pytest.fixture(scope="session")
def corpus():
    """200 generated programs with 5 margin-stable inputs each.

    Shared across tests that only read or extend the module; anything
    that corrupts functions must deepcopy first.
    """
    module = Module()
    suite = generate_suite(module, random.Random(CORPUS_SEED), 200,
                           inputs_per=5)
    return module, suite


# One line per acceptance criterion, printed at the end of the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def max_rel(x, y) -> float:
    if hasattr(x, "flat"):
        return max(map(rel, x.flat(), y.flat()), default=0.0)
    return rel(x, y)


def bits(v):
    """A value's exact bits, so that equality is bit for bit (0.0 is not -0.0)."""
    if hasattr(v, "data"):
        return v.shape, v.data.tobytes()
    return float(v).hex()
