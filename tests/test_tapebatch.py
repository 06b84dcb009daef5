"""Batched traces against a per-lane model.

The model keeps one persistent cons-list ``Tape`` per lane and reads
lanes one at a time, as batched traces were first written.  Random
sequences of trace kernels run on both; every ``tape_top``, every
``tape_expect_empty`` and every trace's per-lane depths must agree bit
for bit.
"""

import math
import random

import numpy as np
import pytest

from ssagrad import DenseTensor, EvalError, eval_function, parse_ir
from ssagrad.interp import EMPTY_TAPE, KERNELS, Tape
from ssagrad.ir import tensor_type
from ssagrad.tensor import DomainError, unstack

from conftest import bits


def kernel(op, attrs, *vals):
    return KERNELS[op](None, attrs, list(vals), range(len(vals)))


def top(t, shape):
    return kernel("tape_top", {"ty": tensor_type(*shape), "per_lane": True}, t)


def expect_empty(t):
    try:
        return kernel("tape_expect_empty", {}, t)
    except DomainError as e:
        return str(e)


# ------------------------------------------------------ per-lane model


def model_push(lanes, v, per_lane):
    if per_lane:
        rows = unstack(v) if v.rank > 1 else list(v.data)
        return tuple(Tape(r, t) for r, t in zip(rows, lanes))
    return tuple(Tape(v, t) for t in lanes)


def model_row(v, row):
    """One lane's entry read as the requested row, or None for zeros."""
    if row:
        return v.data if isinstance(v, DenseTensor) and v.shape == row else None
    if isinstance(v, (bool, int, float)):
        return float(v)
    return None


def model_top(lanes, shape):
    out = np.zeros(shape)
    for i, t in enumerate(lanes):
        v = None if t.empty else model_row(t.top, shape[1:])
        if v is not None:
            out[i] = v
    return DenseTensor(out)


def model_rest(lanes):
    return tuple(t if t.empty else t.rest for t in lanes)


def model_select(mask, x, y):
    return tuple(a if m != 0.0 else b for m, a, b in zip(mask.data.tolist(), x, y))


def model_expect_empty(lanes):
    left = max(len(t) for t in lanes)
    return f"trace should be used up, {left} entries remain" if left else True


# ------------------------------------------------------- random values

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-308]


def scalar(rng):
    return rng.choice(SPECIAL) if rng.random() < 0.2 else rng.uniform(-3, 3)


def shared_value(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.random() < 0.5
    if kind == 1:
        return rng.randrange(-5, 6)
    if kind == 2:
        shape = rng.choice([(2,), (3,)])
        return DenseTensor.from_flat(shape, [scalar(rng) for _ in range(math.prod(shape))])
    return scalar(rng)


def lane_rows(rng, lanes):
    shape = rng.choice([(lanes,), (lanes, 2), (lanes, 3)])
    return DenseTensor.from_flat(shape, [scalar(rng) for _ in range(math.prod(shape))])


def mask(rng, lanes):
    kind = rng.randrange(4)
    if kind < 2:
        return DenseTensor.full((lanes,), float(kind))
    return DenseTensor.from_flat(
        (lanes,), [rng.choice([0.0, -0.0, 1.0, 2.5, -1.0, math.nan]) for _ in range(lanes)])


def spread(rng, lanes):
    t = EMPTY_TAPE
    for _ in range(rng.randrange(3)):
        t = Tape(shared_value(rng), t)
    return kernel("tape_spread", {"lanes": lanes}, t), (t,) * lanes


@pytest.mark.parametrize("lanes", [1, 3, 8, 64])
def test_tape_batch_matches_per_lane_tapes(lanes):
    rng = random.Random(9000 + lanes)
    pool = [spread(rng, lanes)]
    seen = {"divergent": 0, "across": 0, "older": 0}
    extended = set()  # ids of traces pushed onto so far
    for _ in range(1500):
        # mostly work on recent traces, so that they grow deep
        b, model = pool[-1 - min(int(rng.expovariate(0.3)), len(pool) - 1)]
        op = rng.choices(["spread", "push", "push_lane", "top", "rest", "select", "empty"],
                         [1, 4, 8, 8, 6, 6, 2])[0]
        new = None
        if op == "spread":
            new = spread(rng, lanes)
        elif op == "push":
            v = shared_value(rng)
            new = kernel("tape_push", {}, b, v), model_push(model, v, False)
        elif op == "push_lane":
            v = lane_rows(rng, lanes)
            new = kernel("tape_push", {"per_lane": True}, b, v), model_push(model, v, True)
        elif op == "top":
            shape = rng.choice([(lanes,), (lanes, 2), (lanes, 3)])
            assert bits(top(b, shape)) == bits(model_top(model, shape))
        elif op == "rest":
            new = kernel("tape_rest", {}, b), model_rest(model)
        elif op == "select":
            c, (y, ymodel) = mask(rng, lanes), rng.choice(pool)
            seen["across"] += y.table is not b.table
            new = kernel("select", {}, c, b, y), model_select(c, model, ymodel)
        else:
            assert expect_empty(b) == model_expect_empty(model)
        if new is not None:
            assert new[0].depths() == [len(t) for t in new[1]]
            seen["divergent"] += not isinstance(new[0].at, int)
            if op.startswith("push"):
                # a second push onto b leaves the first one's trace to be read later
                seen["older"] += id(b) in extended
                extended.add(id(b))
            pool.append(new)
    # every old trace still reads as its model, after all the pushes since
    for b, model in pool:
        assert b.depths() == [len(t) for t in model]
        for shape in ((lanes,), (lanes, 2)):
            assert bits(top(b, shape)) == bits(model_top(model, shape))
        assert expect_empty(b) == model_expect_empty(model)
    assert seen["across"] > 0 and seen["older"] > 0
    assert seen["divergent"] > 0 or lanes == 1


def test_older_trace_reads_the_same_after_a_newer_push():
    v1 = DenseTensor.from_flat((4,), [1.0, 2.0, 3.0, 4.0])
    v2 = DenseTensor.from_flat((4,), [5.0, 6.0, 7.0, 8.0])
    base = kernel("tape_spread", {"lanes": 4}, EMPTY_TAPE)
    mixed = kernel("select", {}, DenseTensor.from_flat((4,), [1.0, 0.0, 1.0, 0.0]),
                   kernel("tape_push", {"per_lane": True}, base, v1), base)
    first = kernel("tape_push", {"per_lane": True}, mixed, v1)
    second = kernel("tape_push", {"per_lane": True}, mixed, v2)
    assert top(first, (4,)).flat() == [1.0, 2.0, 3.0, 4.0]
    assert top(second, (4,)).flat() == [5.0, 6.0, 7.0, 8.0]
    assert top(kernel("tape_rest", {}, first), (4,)).flat() == [1.0, 0.0, 3.0, 0.0]
    assert repr(first) == repr(second) == "<tapes 2/1/2/1>"
    # lanes that meet again share one node
    assert kernel("tape_rest", {}, kernel("tape_rest", {}, first)).at == 0


def test_select_across_two_tables():
    v = DenseTensor.from_flat((3, 2), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    x = kernel("tape_push", {}, kernel("tape_spread", {"lanes": 3}, EMPTY_TAPE), 9.0)
    y = kernel("tape_spread", {"lanes": 3}, Tape(7.0, EMPTY_TAPE))
    y = kernel("tape_push", {"per_lane": True}, y, v)
    assert x.table is not y.table
    z = kernel("select", {}, DenseTensor.from_flat((3,), [0.0, math.nan, -0.0]), x, y)
    assert repr(z) == "<tapes 2/1/2>"
    assert bits(top(z, (3, 2))) == bits(DenseTensor.from_flat((3, 2), [1.0, 2.0, 0.0, 0.0, 5.0, 6.0]))
    assert top(z, (3,)).flat() == [0.0, 9.0, 0.0]
    rest = kernel("tape_rest", {}, z)
    assert top(rest, (3,)).flat() == [7.0, 0.0, 7.0]
    assert expect_empty(rest) == "trace should be used up, 1 entries remain"
    # the trace that moved reads as before
    assert top(y, (3, 2)).flat() == v.flat()


PUSH_ROWS_SRC = """
func @f(%v: tensor<2xf64>) -> bool {
^entry:
  %t0 = tape_new
  %t = tape_spread %t0 {lanes = 4}
  %t2 = tape_push %t, %v {per_lane = true}
  %e = tape_expect_empty %t2
  ret %e
}
"""


def test_per_lane_push_with_the_wrong_row_count_is_a_located_eval_error():
    m = parse_ir(PUSH_ROWS_SRC)
    with pytest.raises(EvalError) as info:
        eval_function(m, "f", (DenseTensor.from_flat((2,), [1.0, 2.0]),))
    e = info.value
    assert (e.function, e.block, e.index, e.message) == (
        "f", "entry", 2, "per-lane tape_push of shape (2,) onto tapes<4>")
    with pytest.raises(ValueError, match=r"per-lane tape_push of a float onto tapes<4>"):
        kernel("tape_push", {"per_lane": True}, kernel("tape_spread", {"lanes": 4}, EMPTY_TAPE), 1.0)
