import math
import random
import warnings

import pytest

from ssagrad import (DenseTensor, Dual, EvalError, Machine, dual_eval,
                     eval_function, finite_diff, fused_map_pullback,
                     fused_map_with_partials, grad, parse_ir)
from ssagrad import tensor as T
from ssagrad.forward_ad import pack_rows
from ssagrad.interp import _rows_exact
from ssagrad.ir import F64, tensor_type
from ssagrad.tensor import DomainError

from conftest import bits, rel

SRC = """
func @poly(%x: f64) -> f64 {
^entry:
  %x2 = mul %x, %x
  %x3 = mul %x2, %x
  %t = tanh %x3
  ret %t
}

func @two(%a: f64, %b: f64) -> f64 {
^entry:
  %s = add %a, %b
  %t = tanh %s
  ret %t
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
"""


@pytest.fixture
def m():
    return parse_ir(SRC)


def dpoly(x):
    return 3 * x * x / math.cosh(x * x * x) ** 2


def test_dual_eval_derivative(m):
    for x in (0.3, -0.8, 1.1):
        out = dual_eval(m, "poly", (Dual(x, (1.0,)),))
        assert out.p == math.tanh(x * x * x)
        assert rel(out.t[0], dpoly(x)) < 1e-12


def test_dual_eval_plain_floats_get_zero_rows(m):
    out = dual_eval(m, "two", (Dual(0.5, (1.0,)), 0.25))
    assert rel(out.t[0], 1 / math.cosh(0.75) ** 2) < 1e-12


def test_dual_eval_multi_row(m):
    # one pass carries both partials
    out = dual_eval(m, "two", (Dual(0.5, (1.0, 0.0)), Dual(0.25, (0.0, 1.0))))
    d = 1 / math.cosh(0.75) ** 2
    assert rel(out.t[0], d) < 1e-12
    assert rel(out.t[1], d) < 1e-12


def test_dual_eval_mixed_widths_rejected(m):
    with pytest.raises(ValueError):
        dual_eval(m, "two", (Dual(0.5, (1.0,)), Dual(0.25, (0.0, 1.0))))


def test_dual_eval_through_branch(m):
    out = dual_eval(m, "branchy", (Dual(2.0, (1.0,)),))
    assert rel(out.t[0], 1 / 3.0) < 1e-12
    out = dual_eval(m, "branchy", (Dual(-1.5, (1.0,)),))
    assert rel(out.t[0], -math.exp(1.5)) < 1e-12


def test_pack_rows(m):
    rows = pack_rows(Machine(m, 10_000), m.get("two"), (0.5, 0.25))
    assert rows[0] == math.tanh(0.75)
    d = 1 / math.cosh(0.75) ** 2
    assert rel(rows[1], d) < 1e-12 and rel(rows[2], d) < 1e-12


def test_fused_primal_bit_identical_to_interp(m):
    # same scalar code, same rounding: equality is exact by construction
    rng = random.Random(11)
    for _ in range(50):
        vals = [rng.uniform(-2, 2) for _ in range(4)]
        x = DenseTensor.from_flat((4,), vals)
        b = rng.uniform(-1, 1)
        primal, _ = fused_map_with_partials(m, "two", (x, b))
        unfused = [eval_function(m, "two", (v, b))[0] for v in vals]
        assert primal.flat() == unfused


def test_fused_partials_match_fd(m):
    x = DenseTensor.from_flat((4,), [0.2, -0.9, 1.4, 0.05])
    b = 0.7
    _, parts = fused_map_with_partials(m, "two", (x, b))
    h = 1e-6
    for i, v in enumerate(x.flat()):
        fd = (eval_function(m, "two", (v + h, b))[0]
              - eval_function(m, "two", (v - h, b))[0]) / (2 * h)
        assert rel(parts[0].flat()[i], fd) < 1e-6
        fd_b = (eval_function(m, "two", (v, b + h))[0]
                - eval_function(m, "two", (v, b - h))[0]) / (2 * h)
        assert rel(parts[1].flat()[i], fd_b) < 1e-6


def test_fused_all_scalar_args(m):
    primal, parts = fused_map_with_partials(m, "two", (0.5, 0.25))
    assert primal == math.tanh(0.75)
    assert len(parts) == 2 and not isinstance(parts[0], DenseTensor)


def test_fused_broadcast_shapes(m):
    x = DenseTensor.from_flat((2, 1), [0.1, 0.2])
    y = DenseTensor.from_flat((3,), [1.0, 2.0, 3.0])
    primal, parts = fused_map_with_partials(m, "two", (x, y))
    assert primal.shape == (2, 3)
    assert parts[0].shape == (2, 3) and parts[1].shape == (2, 3)


def test_fused_pullback_folds_broadcast(m):
    x = DenseTensor.from_flat((2, 1), [0.1, 0.2])
    y = DenseTensor.from_flat((3,), [1.0, 2.0, 3.0])
    _, parts = fused_map_with_partials(m, "two", (x, y))
    ybar = DenseTensor.full((2, 3), 1.0)
    cx, cy = fused_map_pullback(parts, (tensor_type(2, 1), tensor_type(3)), ybar)
    assert cx.shape == (2, 1)
    assert cy.shape == (3,)
    # row/column sums of the dense partials
    px, py = parts
    assert cx.flat() == pytest.approx(
        [sum(px.data[i]) for i in range(2)], abs=1e-15)
    assert cy.flat() == pytest.approx(
        [px.data[0][j] * 0 + py.data[0][j] + py.data[1][j] for j in range(3)],
        abs=1e-15)


def test_fused_pullback_scalar_operand(m):
    x = DenseTensor.from_flat((4,), [0.2, -0.9, 1.4, 0.05])
    _, parts = fused_map_with_partials(m, "two", (x, 0.7))
    ybar = DenseTensor.full((4,), 1.0)
    cx, cb = fused_map_pullback(parts, (tensor_type(4), F64), ybar)
    assert cx.shape == (4,)
    assert not isinstance(cb, DenseTensor)


def test_reverse_over_fused_matches_fd(analytic):
    # the composed route the acceptance suite leans on: reverse AD
    # through a fused_map call site
    x = DenseTensor.from_flat((4,), [0.2, -0.9, 1.4, 0.05])
    g = grad(analytic, "mapped", (x, 0.7))
    fd = finite_diff(analytic, "mapped", (x, 0.7), (1.0,))
    for a, b in zip(g[0].flat(), fd[0].flat()):
        assert rel(a, b) < 1e-6
    assert rel(g[1], fd[1]) < 1e-6


def test_rejects_non_scalar_callee(analytic):
    with pytest.raises(ValueError):
        dual_eval(analytic, "net", (Dual(1.0, (1.0,)),))


# one function per scalar op, plus a nested map and a non-scalar callee
OPS_SRC = """
func @sub(%a: f64, %b: f64) -> f64 {
^entry:
  %r = sub %a, %b
  ret %r
}

func @div(%a: f64, %b: f64) -> f64 {
^entry:
  %r = div %a, %b
  ret %r
}

func @sigmoid(%x: f64) -> f64 {
^entry:
  %r = sigmoid %x
  ret %r
}

func @relu(%x: f64) -> f64 {
^entry:
  %r = relu %x
  ret %r
}

func @pow0(%x: f64) -> f64 {
^entry:
  %r = pow_int %x {n = 0}
  ret %r
}

func @pow3(%x: f64) -> f64 {
^entry:
  %r = pow_int %x {n = 3}
  ret %r
}

func @neg(%x: f64) -> f64 {
^entry:
  %r = neg %x
  ret %r
}

func @itof_loop(%x: f64) -> f64 {
^entry:
  %i0 = const i64 0
  %n = const i64 4
  %a0 = const f64 0.0
  jmp ^head(%i0, %a0)
^head(%i: i64, %acc: f64):
  %more = lt %i, %n
  br %more, ^body(), ^exit(%acc)
^body:
  %fi = itof %i
  %t = mul %fi, %x
  %a2 = add %acc, %t
  %one = const i64 1
  %i2 = add %i, %one
  jmp ^head(%i2, %a2)
^exit(%r: f64):
  ret %r
}

func @select(%a: f64, %b: f64) -> f64 {
^entry:
  %c = gt %a, %b
  %sq = mul %a, %a
  %r = select %c, %sq, %b
  ret %r
}

func @nested_map(%x: f64) -> f64 {
^entry:
  %r = fused_map %x {fn = @sigmoid}
  ret %r
}

func @builds_tensor(%x: f64) -> f64 {
^entry:
  %t = stack %x, %x {axis = 0}
  %s = reduce_sum %t {axis = all}
  ret %s
}

func @calls_tensor(%x: f64) -> f64 {
^entry:
  %r = call %x {fn = @builds_tensor}
  ret %r
}
"""

OP_POINTS = [
    ("sub", (0.7, -1.3)),
    ("div", (0.7, -1.3)),
    ("div", (-2.1, 0.4)),
    ("sigmoid", (0.35,)),
    ("relu", (0.8,)),
    ("relu", (-0.6,)),
    ("pow0", (1.7,)),
    ("pow3", (-1.2,)),
    ("neg", (0.45,)),
    ("itof_loop", (0.9,)),
    ("select", (1.5, 0.2)),
    ("select", (-0.5, 0.2)),
    ("nested_map", (0.35,)),
]


@pytest.mark.parametrize("name,point", OP_POINTS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(OP_POINTS)])
def test_dual_eval_every_scalar_op_matches_fd(name, point):
    m = parse_ir(OPS_SRC)
    k = len(point)
    seeded = tuple(Dual(v, tuple(1.0 if j == i else 0.0 for j in range(k)))
                   for i, v in enumerate(point))
    out = dual_eval(m, name, seeded)
    assert out.p == eval_function(m, name, point)[0]
    h = 1e-6
    for i in range(k):
        hi = list(point)
        lo = list(point)
        hi[i] += h
        lo[i] -= h
        fd = (eval_function(m, name, tuple(hi))[0]
              - eval_function(m, name, tuple(lo))[0]) / (2 * h)
        assert rel(out.t[i], fd) < 1e-6, (name, point, i, out.t[i], fd)


def test_dual_eval_rejects_tensor_in_scalar_callee():
    m = parse_ir(OPS_SRC)
    with pytest.raises(EvalError) as err:
        dual_eval(m, "calls_tensor", (Dual(0.5, (1.0,)),))
    assert isinstance(err.value.__cause__, DomainError)
    assert "forward mode runs scalar code only" in str(err.value)


# bodies that run over whole rows: together they use every op the row
# path accepts, and a nested call and fused_map
ROWS_SRC = """
func @sq(%t: f64) -> f64 {
^entry:
  %s = mul %t, %t
  ret %s
}

func @every(%a: f64, %b: f64) -> f64 {
^entry:
  %one = const f64 1.0
  %s = add %a, %b
  %d = sub %a, %b
  %p = mul %s, %d
  %e = exp %a
  %q = div %p, %e
  %n = neg %q
  %b2 = call %b {fn = @sq}
  %u = add %b2, %one
  %l = log %u
  %t = tanh %l
  %g = sigmoid %n
  %r = relu %d
  %w = pow_int %s {n = 3}
  %c1 = lt %a, %b
  %c2 = gt %a, %one
  %c3 = eq %a, %b
  %x1 = select %c1, %t, %g
  %x2 = select %c2, %r, %w
  %x3 = select %c3, %one, %x2
  %m = fused_map %x1, %x3 {fn = @sq_sum}
  %y = add %m, %q
  ret %y
}

func @sq_sum(%a: f64, %b: f64) -> f64 {
^entry:
  %s = add %a, %b
  %r = call %s {fn = @sq}
  ret %r
}

func @consts(%a: f64, %b: f64) -> f64 {
^entry:
  %c = const f64 1.5
  %z = const f64 -0.0
  %r = add %c, %z
  ret %r
}

func @nested(%a: f64, %b: f64) -> f64 {
^entry:
  %y = fused_map %a, %b {fn = @every}
  %z = call %y {fn = @sq}
  ret %z
}
"""

ROW_SHAPES = {
    "64x64": ((64,), (64,)),
    "3x4_scalar": ((3, 4), ()),
    "scalar_3x4": ((), (3, 4)),
    "2x1_3": ((2, 1), (3,)),
    "scalar_scalar": ((), ()),
}


def _operand(rng, shape):
    if not shape:
        return rng.uniform(-2, 2)
    n = math.prod(shape)
    # exact ties exercise eq and the kinks of relu and select
    vals = [rng.choice([0.0, 1.0, -0.5]) if i % 5 == 0 else rng.uniform(-2, 2)
            for i in range(n)]
    return DenseTensor.from_flat(shape, vals)


def _points(args):
    """Each point of args' broadcast, row-major, and the broadcast shape."""
    shape = ()
    for a in args:
        if isinstance(a, DenseTensor):
            shape = T.broadcast_shapes(shape, a.shape)
    if not shape:
        return [tuple(args)], shape
    cols = [T.bcast_to(a, shape).flat() if isinstance(a, DenseTensor) else [a] * math.prod(shape)
            for a in args]
    return list(zip(*cols)), shape


@pytest.mark.parametrize("shapes", ROW_SHAPES.values(), ids=ROW_SHAPES)
@pytest.mark.parametrize("name", ["every", "consts", "nested", "sq_sum"])
def test_row_run_bit_identical_to_each_point(name, shapes, monkeypatch):
    m = parse_ir(ROWS_SRC)
    fn = m.get(name)
    assert _rows_exact(m, fn)
    rng = random.Random(f"{name}-{shapes}")
    args = tuple(_operand(rng, s) for s in shapes)
    points, shape = _points(args)
    # the per-element path: one plain run and one pack per point
    plain = [eval_function(m, name, p)[0] for p in points]
    packs = [pack_rows(Machine(m), fn, p) for p in points]
    runs = []
    walk = Machine.run
    monkeypatch.setattr(Machine, "run", lambda self, f, a: runs.append(f.name) or walk(self, f, a))
    pack_rows(Machine(m), fn, points[0])
    per_point = len(runs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        primal, parts = fused_map_with_partials(m, name, args)
        mapped = Machine(m)._fused_map(fn, list(args))
    # each map walked its body once, whatever the element count
    assert len(runs) == 3 * per_point

    def at(rows):
        return DenseTensor.from_flat(shape, rows) if shape else rows[0]

    assert bits(primal) == bits(at(plain)) == bits(mapped)
    assert bits(primal) == bits(at([c[0] for c in packs]))
    for i, part in enumerate(parts):
        assert bits(part) == bits(at([c[1 + i] for c in packs])), i


def test_row_run_prints_no_overflow_warning():
    # numpy warns where the scalar arithmetic of a single point does not
    m = parse_ir(ROWS_SRC)
    x = DenseTensor.from_flat((3,), [1e200, -1e200, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        primal, (part,) = fused_map_with_partials(m, "sq", (x,))
    assert primal.flat() == [math.inf, math.inf, 0.25]
    assert part.flat() == [2e200, -2e200, 1.0]
