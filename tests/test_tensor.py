import itertools
import math

import numpy as np
import pytest

from ssagrad import DenseTensor, parse_ir
from ssagrad import tensor as T
from ssagrad.interp import KERNELS, Machine, TapeBatch, _Table
from ssagrad.ir import F64, FnRef, tensor_type
from ssagrad.rules import NUMERIC, reduce_like


def t(shape, vals):
    return DenseTensor.from_flat(shape, vals)


def test_from_flat_round_trip():
    x = t((2, 3), [1, 2, 3, 4, 5, 6])
    assert x.shape == (2, 3)
    assert x.rank == 2
    assert x.flat() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_immutable():
    x = t((2,), [1, 2])
    with pytest.raises(ValueError):
        x.data[0] = 9.0


def test_rank_zero_rejected():
    with pytest.raises(ValueError):
        DenseTensor(np.float64(3.0))
    with pytest.raises(ValueError):
        DenseTensor(np.array(3.0))
    with pytest.raises(ValueError):
        DenseTensor.from_flat((), [3.0])
    with pytest.raises(ValueError):
        DenseTensor.zeros(())
    with pytest.raises(ValueError):
        DenseTensor.full((), 3.0)


def test_from_flat_length_mismatch():
    with pytest.raises(ValueError):
        t((2, 2), [1, 2, 3])


def test_add_broadcast():
    a = t((2, 3), [1, 2, 3, 4, 5, 6])
    b = t((3,), [10, 20, 30])
    out = T.add(a, b)
    assert out.flat() == [11.0, 22.0, 33.0, 14.0, 25.0, 36.0]


def test_scalar_promotes():
    a = t((2,), [1, 2])
    assert T.mul(a, 2.0).flat() == [2.0, 4.0]
    assert T.add(3.0, 4.0) == 7.0


def test_div_by_zero_tensor():
    a = t((2,), [1, 2])
    with pytest.raises(T.DomainError):
        T.div(a, t((2,), [1, 0]))
    with pytest.raises(T.DomainError):
        T.div(1.0, 0.0)
    # -0.0 is a zero divisor too; NaN is not, and propagates
    with pytest.raises(T.DomainError):
        T.div(a, t((2,), [-0.0, 1]))
    with pytest.raises(T.DomainError):
        T.div(2.0, t((2,), [1, -0.0]))
    out = T.div(a, t((2,), [math.nan, 4]))
    assert math.isnan(out.flat()[0]) and out.flat()[1] == 0.5


def test_unary_math_matches_scalar_loop():
    a = t((2, 2), [-1.5, 0.2, 3.0, -0.7])
    out = T.unary_math("tanh", a)
    assert out.flat() == [math.tanh(v) for v in a.flat()]


def test_exp_overflow_gives_inf():
    assert T.scalar_exp(1000.0) == math.inf
    assert T.scalar_sigmoid(-1000.0) == 0.0
    xs = [-1000.0, -3.25, 0.0, 0.7, 88.5, 709.78]  # all finite
    out = T.unary_math("exp", t((7,), xs + [710.0]))
    assert [v.hex() for v in out.flat()] == [math.exp(x).hex() for x in xs] + [math.inf.hex()]


def test_log_domain():
    with pytest.raises(T.DomainError):
        T.unary_math("log", t((2,), [1.0, 0.0]))
    with pytest.raises(T.DomainError):
        T.scalar_log(-1.0)


def test_pow_int_is_repeated_multiply():
    # left-to-right products, not math.pow, so the interpreter and the
    # adjoint see the same rounding
    x = 1.7
    acc = 1.0
    for _ in range(3):
        acc *= x
    assert T.scalar_pow_int(x, 3) == acc
    assert T.pow_int(t((2,), [x, 2.0]), 3).flat()[0] == acc


def test_matmul_matches_numpy():
    a = t((2, 3), [1, 2, 3, 4, 5, 6])
    b = t((3, 2), [7, 8, 9, 10, 11, 12])
    out = T.matmul(a, b)
    want = a.data @ b.data
    assert np.array_equal(out.data, want)


def test_matmul_rank_checked():
    with pytest.raises(ValueError):
        T.matmul(t((2,), [1, 2]), t((2, 2), [1, 2, 3, 4]))
    # rank 3 needs the same rank on both sides and one leading (lane) extent
    with pytest.raises(ValueError):
        T.matmul(t((2, 2, 3), list(range(12))), t((3, 2), list(range(6))))
    with pytest.raises(ValueError):
        T.matmul(t((2, 2, 3), list(range(12))), t((3, 3, 2), list(range(18))))
    with pytest.raises(ValueError):
        T.matmul(t((1, 1, 2, 2), [1, 2, 3, 4]), t((1, 1, 2, 2), [1, 2, 3, 4]))


def test_bmm_matches_loop():
    # a rank-3 matmul is one rank-2 matmul per lane, bit for bit
    a = t((2, 2, 3), [0.1 * k - 0.55 for k in range(12)])
    b = t((2, 3, 2), [0.3 - 0.07 * k for k in range(12)])
    out = T.matmul(a, b)
    for i in range(2):
        lane = T.matmul(DenseTensor(a.data[i]), DenseTensor(b.data[i]))
        assert out.data[i].tobytes() == lane.data.tobytes()


def test_transpose_reshape():
    a = t((2, 3), [1, 2, 3, 4, 5, 6])
    assert T.transpose(a).shape == (3, 2)
    assert T.transpose(a).flat() == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]
    assert T.reshape(a, (3, 2)).flat() == a.flat()
    with pytest.raises(ValueError):
        T.reshape(a, (4, 2))


def test_reduce_sum_all_folds_leading_axis_first():
    vals = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    a = t((2, 3), vals)
    folded = [vals[j] + vals[3 + j] for j in range(3)]
    acc = 0.0
    for v in folded:
        acc += v
    assert T.reduce_sum(a, "all") == acc
    # rank 1 is the plain ascending fold
    acc1 = 0.0
    for v in vals:
        acc1 += v
    assert T.reduce_sum(t((6,), vals), "all") == acc1


def test_reduce_sum_axis_and_tail():
    a = t((2, 3), [1, 2, 3, 4, 5, 6])
    assert T.reduce_sum(a, 0).flat() == [5.0, 7.0, 9.0]
    assert T.reduce_sum(a, 1).flat() == [6.0, 15.0]
    # a per-lane full fold is one axis-1 fold per axis after the lanes
    a3 = t((2, 2, 3), list(range(12)))
    tail = T.reduce_sum(T.reduce_sum(a3, 1), 1)
    assert tail.shape == (2,)
    assert tail.flat() == [T.reduce_sum(DenseTensor(a3.data[i]), "all") for i in range(2)]
    with pytest.raises(ValueError):
        T.reduce_sum(a, "tail")


def _fold(arr, axis):
    """``axis`` of ``arr`` summed by an ascending-index loop that starts
    from the first term."""
    acc = arr.take(0, axis)
    for i in range(1, arr.shape[axis]):
        acc = acc + arr.take(i, axis)
    return acc


def _folded(vals, src, keep):
    """``vals`` (row-major over ``src``) folded onto the broadcast-compatible
    shape ``keep``: the axes the broadcast added, then the axes ``keep``
    holds at extent 1, one at a time, each by an ascending-index loop."""
    arr = np.array(vals).reshape(src)
    for _ in range(len(src) - len(keep)):
        arr = _fold(arr, 0)
    for ax, k in enumerate(keep):
        if k == 1:
            arr = np.expand_dims(_fold(arr, ax), ax)
    return arr


def test_reduce_to_folds_broadcast_axes():
    # rules.reduce_like on NUMERIC folds a broadcast cotangent back onto
    # its operand's shape as an ascending-order Python loop does, bit for
    # bit; values spread over many binades so any other order shows
    for src, keep in [((2, 3), (3,)), ((2, 3), (1, 3)), ((2, 3), (2, 1)), ((2, 3), (1, 1)),
                      ((3,), (1,)), ((4, 2, 3), (2, 1)), ((4, 2, 3), (1, 3)),
                      ((2, 4, 3), (2, 1, 3)), ((2, 3), (2, 3))]:
        vals = [(-1.7) ** (k % 7) * 10.0 ** (k % 5 - 2) + k / 3 for k in range(math.prod(src))]
        x = DenseTensor.from_flat(src, vals)
        got = reduce_like(NUMERIC, x, tensor_type(*keep))
        assert got.shape == keep
        assert got.data.tobytes() == _folded(vals, src, keep).tobytes(), (src, keep)
        # an f64 operand takes the full fold
        assert reduce_like(NUMERIC, x, F64) == T.reduce_sum(x, "all")


def _spread(rng, shape, zeros):
    """Values of both signs over about 60 binades; with ``zeros``, about
    half the entries are -0.0, so some folds see only -0.0 terms."""
    vals = rng.standard_normal(shape) * np.exp2(rng.integers(-30, 31, shape))
    if zeros:
        vals[rng.random(shape) < 0.5] = -0.0
    return vals


FOLD_KS = (1, 2, 8, 9, 33, 129)
FOLD_MN = ((1, 1), (1, 5), (5, 1), (3, 4), (32, 8))


def test_matmul_folds_k_in_ascending_order():
    # each output element is acc = a[i,0]*b[0,j]; acc += a[i,k]*b[k,j] for
    # k = 1, 2, ... bit for bit, signed zeros included; numpy's pairwise
    # sums (from 9 terms on) and BLAS products both round differently
    rng = np.random.default_rng(1457)
    for k, (m, n), zeros, lanes in itertools.product(FOLD_KS, FOLD_MN, (False, True),
                                                      ((), (1,), (3,))):
        a = _spread(rng, (*lanes, m, k), zeros)
        b = _spread(rng, (*lanes, k, n), zeros)
        want = a[..., :, 0:1] * b[..., 0:1, :]
        for i in range(1, k):
            want = want + a[..., :, i:i + 1] * b[..., i:i + 1, :]
        got = T.matmul(DenseTensor(a), DenseTensor(b))
        assert got.data.tobytes() == want.tobytes(), (lanes, m, k, n, zeros)


FOLD_SHAPES = ((129,), (2, 9), (9, 2), (33, 1), (1, 7), (129, 3), (9, 33, 1), (3, 8, 2),
               (2, 1, 9), (33, 2, 2), (2, 3, 4, 5), (9, 1, 2, 1), (1, 9, 9, 1))


def test_reduce_sum_folds_in_ascending_order():
    # one axis is an ascending loop over that axis; "all" folds the
    # leading axis until one row is left, then that row
    rng = np.random.default_rng(1811)
    for shape, zeros in itertools.product(FOLD_SHAPES, (False, True)):
        x = _spread(rng, shape, zeros)
        for ax in range(len(shape)):
            got = T.reduce_sum(DenseTensor(x), ax)
            got = got.data if isinstance(got, DenseTensor) else np.float64(got)
            assert got.tobytes() == _fold(x, ax).tobytes(), (shape, ax, zeros)
        want = x
        while want.ndim:
            want = _fold(want, 0)
        got = T.reduce_sum(DenseTensor(x), "all")
        assert np.float64(got).tobytes() == want.tobytes(), (shape, "all", zeros)


def test_broadcast_shapes():
    assert T.broadcast_shapes((2, 3), (3,)) == (2, 3)
    assert T.broadcast_shapes((2, 1), (2, 3)) == (2, 3)
    with pytest.raises(ValueError):
        T.broadcast_shapes((2, 3), (4,))


def test_can_expand():
    assert T.can_expand((3,), (2, 3))
    assert T.can_expand((2, 1), (2, 3))
    assert not T.can_expand((2, 3), (3,))


def test_bcast_to():
    out = T.bcast_to(2.5, (2, 2))
    assert out.flat() == [2.5] * 4
    out = T.bcast_to(t((3,), [1, 2, 3]), (2, 3))
    assert out.flat() == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]


def test_compare_mask():
    a = t((3,), [1, 5, 3])
    b = t((3,), [2, 4, 3])
    assert T.compare("lt", a, b).flat() == [1.0, 0.0, 0.0]
    assert T.compare("gt", a, b).flat() == [0.0, 1.0, 0.0]
    assert T.compare("eq", a, b).flat() == [0.0, 0.0, 1.0]


def test_select_mask():
    m = t((3,), [1, 0, 1])
    a = t((3,), [10, 20, 30])
    assert T.select_mask(m, a, 0.0).flat() == [10.0, 0.0, 30.0]


def test_stack_unstack_take():
    rows = [t((2,), [1, 2]), t((2,), [3, 4]), t((2,), [5, 6])]
    s = T.stack(rows, 0)
    assert s.shape == (3, 2)
    back = [T.take(s, i, 0) for i in range(3)]
    assert [r.flat() for r in back] == [r.flat() for r in rows]
    assert T.take(s, 1, 0).flat() == [3.0, 4.0]
    col = T.take(t((3,), [7, 8, 9]), 2, 0)
    assert col == 9.0


# ------------------------------------------------ the tensor invariant


def assert_invariant(out):
    """C-contiguous, read-only, rank >= 1 float64, whichever constructor made it."""
    assert isinstance(out, DenseTensor)
    d = out.data
    assert d.dtype == np.float64 and d.ndim >= 1
    assert d.flags.c_contiguous and not d.flags.writeable
    with pytest.raises(ValueError):
        d[(0,) * d.ndim] = 1.0


def pos(shape, start=1.0):
    """A tensor of distinct positive values, so div and log are defined."""
    return t(shape, [start + 0.5 * i for i in range(math.prod(shape))])


def operands(layout):
    """a and b broadcast to (2, 3) and so does the mask m; r is (3, 2),
    a3 is (2, 2, 3) and r3 is (2, 3, 2); each made as layout says."""
    if layout == "contiguous":
        return dict(a=pos((2, 3)), b=pos((2, 3), 4.0), m=t((2, 3), [1, 0, 1, 0, 0, 1]),
                    r=pos((3, 2)), a3=pos((2, 2, 3)), r3=pos((2, 3, 2)))
    if layout == "transposed":  # a from a transposed array, the rest by the transpose kernel
        return dict(a=DenseTensor(pos((3, 2)).data.T), b=T.transpose(pos((3, 2), 4.0)),
                    m=T.transpose(t((3, 2), [1, 0, 0, 0, 1, 1])),
                    r=T.transpose(pos((2, 3))), a3=T.transpose(pos((2, 3, 2))),
                    r3=T.transpose(pos((2, 2, 3))))
    return dict(a=T.bcast_to(pos((3,)), (2, 3)), b=pos((1, 3), 4.0), m=t((3,), [0, 1, 1]),
                r=T.bcast_to(pos((1, 2)), (3, 2)), a3=T.bcast_to(pos((2, 3)), (2, 2, 3)),
                r3=T.bcast_to(pos((3, 2)), (2, 3, 2)))


LAYOUTS = ["contiguous", "transposed", "broadcast"]


def tensor_kernel_calls(a, b, m, r, a3, r3):
    yield from (T.add(a, b), T.sub(a, b), T.mul(a, b), T.div(a, b),
                T.add(a, 2.0), T.sub(2.0, b), T.mul(0.5, a), T.div(a, 4.0), T.div(1.0, b),
                T.neg(a), T.neg(b))
    yield from (T.unary_math(name, a) for name in T.SCALAR_UNARY)
    yield from (T.pow_int(a, n) for n in (0, 1, 3))
    yield from (T.compare(op, x, y) for op in ("lt", "gt", "eq") for x, y in ((a, b), (a, 3.0)))
    yield from (T.select_mask(m, a, b), T.select_mask(m, 1.0, a), T.select_mask(m, a, 0))
    yield from (T.bcast_to(b, (2, 2, 3)), T.bcast_to(a, (2, 3)), T.bcast_to(1.5, (2, 3)))
    yield from (T.reduce_sum(a, 0), T.reduce_sum(a, 1), T.reduce_sum(b, 1),
                T.reduce_sum(a3, 1), T.reduce_sum(a3, 2), T.reduce_sum(T.reduce_sum(a3, 1), 1))
    yield from (reduce_like(NUMERIC, a, tensor_type(*s)) for s in ((3,), (1, 3), (2, 1), (2, 3)))
    yield from (T.matmul(a, r), T.matmul(r, a), T.matmul(a3, r3),
                T.matmul(T.bcast_to(b, (2, 2, 3)), r3))
    yield from (T.transpose(a), T.transpose(a3), T.transpose(r3))
    yield from (T.reshape(a, s) for s in ((3, 2), (6,), (2, 3), (1, 6, 1)))
    yield from (T.stack([a, a], axis) for axis in (0, 1, 2))
    yield from (T.take(a, 1, 0), T.take(a, 2, 1), T.take(a3, 1, 1), T.take(r3, 0, 2))
    yield from (DenseTensor.zeros((2, 3)), DenseTensor.full((3,), 2.0))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_tensor_kernel_keeps_the_invariant(layout):
    ops = operands(layout)
    for x in ops.values():
        assert_invariant(x)
    for out in tensor_kernel_calls(**ops):
        assert_invariant(out)


SCALAR_CALLEE = """
func @sq(%x: f64) -> f64 {
^entry:
  %y = mul %x, %x
  ret %y
}
"""

# the ops whose kernels read no tensor operand or make no tensor
NO_TENSOR_KERNEL = {"const", "itof", "tape_new", "tape_push", "tape_rest", "tape_spread",
                    "tape_expect_empty"}


def interp_kernel_calls(a, b, m, r, a3, r3):
    """(op, attrs, operands) for every KERNELS entry that takes tensor operands."""
    sq = {"fn": FnRef("sq")}
    lanes = KERNELS["tape_push"](None, {"per_lane": True}, [TapeBatch(_Table(2), 0), a], [0, 1])
    shared = KERNELS["tape_push"](None, {}, [lanes, pos((3,))], [0, 1])
    mixed = KERNELS["select"](None, {}, [t((2,), [1, 0]), lanes, shared], [0, 1, 2])
    yield from ((op, {}, (a, b)) for op in ("add", "sub", "mul", "div", "lt", "gt", "eq"))
    yield from ((op, {}, (3.0, a)) for op in ("add", "sub", "mul", "div", "lt", "gt", "eq"))
    yield from ((op, {}, (a,)) for op in ["neg", *T.SCALAR_UNARY])
    yield from (("pow_int", {"n": n}, (a,)) for n in (0, 1, 3))
    yield from (("select", {}, (m, a, b)), ("select", {}, (m, 2.0, a)), ("select", {}, (True, a, b)))
    yield from (("matmul", {}, (a, r)), ("matmul", {}, (a3, r3)), ("transpose", {}, (a,)))
    yield from (("reshape", {"shape": s}, (a,)) for s in ((3, 2), (2, 3)))
    yield from (("reduce_sum", {"axis": ax}, (x,)) for ax in (0, 1) for x in (a, a3))
    yield from (("bcast", {"shape": (2, 2, 3)}, (b,)), ("bcast", {"shape": (2, 3)}, (a,)))
    yield from (("stack", {"axis": ax}, (a, a)) for ax in (0, 2))
    yield from (("stack", {}, (1.0, 2.0)), ("unstack", {"index": 1, "axis": 1}, (a3,)))
    yield from ((op, sq, (a,)) for op in ("fused_map", "fused_pack", "call"))
    yield "fused_map", sq, (b,)
    yield from (("tape_top", {"ty": tensor_type(2, 3)}, (tb,)) for tb in (lanes, shared, mixed))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_interp_kernel_keeps_the_invariant(layout):
    machine = Machine(parse_ir(SCALAR_CALLEE))
    calls = list(interp_kernel_calls(**operands(layout)))
    assert {op for op, _, _ in calls} == set(KERNELS) - NO_TENSOR_KERNEL
    with np.errstate(all="ignore"):
        for op, attrs, vals in calls:
            assert_invariant(KERNELS[op](machine, attrs, list(vals), range(len(vals))))


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        DenseTensor(np.zeros(()))
    src = np.arange(6.0).reshape(2, 3).T
    x = DenseTensor(src)
    assert x.data.flags.c_contiguous and not np.shares_memory(x.data, src)
    assert x.data.tolist() == src.tolist()
    assert_invariant(x)
    assert_invariant(DenseTensor([[1, 2], [3, 4]]))


def test_public_constructor_copies_the_callers_array():
    # the caller's array stays writable, and writing it does not reach
    # the tensor, whether it is passed whole or as a view
    base = np.array([1.0, 2.0, 3.0])
    x = DenseTensor(base)
    assert x.data is not base and base.flags.writeable
    base2 = np.array([1.0, 2.0, 3.0])
    y = DenseTensor(base2[:])
    base[0] = base2[0] = 99.0
    assert x.flat() == y.flat() == [1.0, 2.0, 3.0]
    assert_invariant(x)
    assert_invariant(y)


# values that stress the scalar functions: signed zeros and infinities,
# NaN, a subnormal and an argument past exp's overflow
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
            710.0, -745.5, 0.5, -2.25, 1e-8, 37.0]


@pytest.mark.parametrize("name", sorted(T.SCALAR_UNARY))
def test_unary_math_is_the_scalar_function_bit_for_bit(name):
    f = T.SCALAR_UNARY[name]
    # log is defined on the positive values; keep NaN and +inf in its input
    vals = [v if name != "log" or not v <= 0.0 else 0.75 + i for i, v in enumerate(SPECIALS)]
    x = T.transpose(t((3, 4), vals))
    want = np.array([f(v) for v in x.data.tolist() for v in v]).reshape(x.shape)
    assert T.unary_math(name, x).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 3])
def test_pow_int_is_the_scalar_function_bit_for_bit(n):
    x = T.transpose(t((3, 4), SPECIALS))
    want = np.array([T.scalar_pow_int(v, n) for v in x.data.tolist() for v in v]).reshape(x.shape)
    assert T.pow_int(x, n).data.tobytes() == want.tobytes()


def test_log_domain_error_names_the_first_bad_element():
    with pytest.raises(T.DomainError, match=r"non-positive value -1\.0$"):
        T.unary_math("log", t((2, 2), [2.0, -1.0, 0.0, 3.0]))
