import math

import numpy as np
import pytest

from ssagrad import DenseTensor
from ssagrad import tensor as T


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


def test_bmm_matches_loop():
    a = t((2, 2, 3), list(range(12)))
    b = t((2, 3, 2), list(range(12)))
    out = T.bmm(a, b)
    for i in range(2):
        want = a.data[i] @ b.data[i]
        assert np.array_equal(out.data[i], want)


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
    tail = T.reduce_sum(a, "tail")
    assert tail.shape == (2,)
    assert tail.flat() == [6.0, 15.0]


def test_reduce_to_folds_broadcast_axes():
    a = t((2, 3), [1, 2, 3, 4, 5, 6])
    assert T.reduce_to(a, (3,)).flat() == [5.0, 7.0, 9.0]
    assert T.reduce_to(a, (2, 3)).flat() == a.flat()
    assert T.reduce_to(a, ()) == 21.0


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
    back = T.unstack(s, 0)
    assert [r.flat() for r in back] == [r.flat() for r in rows]
    assert T.take(s, 1, 0).flat() == [3.0, 4.0]
    col = T.take(t((3,), [7, 8, 9]), 2, 0)
    assert col == 9.0
