"""Dense float64 tensors with a fixed, reproducible summation order.

Every reduction in this module is defined as a sequential left fold in
ascending index order along the reduced axis, and full reductions fold
the leading axis repeatedly.  That makes results reproducible bit for
bit across runs and lets tests compare against naive loop oracles with
zero tolerance.  The numpy folds used here are such loops, as the test
suite pins: ``add.reduce`` from -0.0 over the leading axis of a C-order
array adds whole rows in turn, and ``cumsum`` serves wherever the axis
would be numpy's innermost loop, which ``add.reduce`` sums pairwise.

Transcendentals go through ``math`` one element at a time on purpose:
the scalar interpreter uses the same calls, so scalar and tensor paths
agree exactly.  That matters for the batching transform, whose contract
is bitwise equality with per-lane execution.

Every tensor holds a C-contiguous, read-only, rank >= 1 float64 array,
whichever constructor made it.  Use ``DenseTensor(...)`` for caller
data: it copies, converts and validates.  Kernels and the factories
wrap the float64, rank >= 1 arrays they have just made with
``DenseTensor._own``, which checks neither, copies only an array that
is not C-contiguous, and clears the write flag.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np


class DomainError(ValueError):
    """A numerically undefined operation: div by zero, log of x <= 0."""


def _tensor_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(d) for d in shape)
    if not shape:
        raise ValueError("tensors have rank >= 1; use a plain float for scalars")
    return shape


class DenseTensor:
    """An immutable rank >= 1 float64 tensor.

    Wraps a C-contiguous, read-only, rank >= 1 float64 ndarray.  The
    public constructor validates a copy of caller data in that form;
    ``_own`` takes only a float64, rank >= 1 array a kernel has just made
    and gives the same invariant.  All operations return new tensors.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim == 0:
            raise ValueError("tensors have rank >= 1; use a plain float for scalars")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _own(cls, arr: np.ndarray) -> "DenseTensor":
        """Wrap a float64, rank >= 1 array a kernel has just made, unchecked."""
        if not arr.flags.c_contiguous:
            arr = arr.copy()
        arr.setflags(write=False)
        t = object.__new__(cls)
        object.__setattr__(t, "data", arr)
        return t

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DenseTensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def rank(self) -> int:
        return self.data.ndim

    def flat(self) -> list[float]:
        return self.data.reshape(-1).tolist()

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape}, data={self.flat()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and bool((self.data == other.data).all())

    def __hash__(self):
        return hash((self.shape, tuple(self.flat())))

    # -------------------------------------------------- constructors

    @staticmethod
    def from_flat(shape: Sequence[int], values: Iterable[float]) -> "DenseTensor":
        shape = _tensor_shape(shape)
        arr = np.array(list(values), dtype=np.float64)
        if arr.size != math.prod(shape):
            raise ValueError(f"{arr.size} values for shape {shape}")
        return DenseTensor._own(arr.reshape(shape))

    @staticmethod
    def zeros(shape: Sequence[int]) -> "DenseTensor":
        return DenseTensor._own(np.zeros(_tensor_shape(shape), dtype=np.float64))

    @staticmethod
    def full(shape: Sequence[int], value: float) -> "DenseTensor":
        return DenseTensor._own(np.full(_tensor_shape(shape), float(value), dtype=np.float64))


# ------------------------------------------------------- broadcasting


def broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Unify two shapes by trailing alignment.

    Aligned extents must match or one of them must be 1.  Raises
    ValueError when the shapes are incompatible.
    """
    out: list[int] = []
    for i in range(1, max(len(a), len(b)) + 1):
        da = a[-i] if i <= len(a) else 1
        db = b[-i] if i <= len(b) else 1
        if da != db and da != 1 and db != 1:
            raise ValueError(f"shapes {a} and {b} do not broadcast")
        out.append(max(da, db))
    return tuple(reversed(out))


def can_expand(src: tuple[int, ...], dst: tuple[int, ...]) -> bool:
    """Whether ``src`` broadcasts to exactly ``dst`` (no shrinking)."""
    if len(src) > len(dst):
        return False
    for i in range(1, len(src) + 1):
        if src[-i] != dst[-i] and src[-i] != 1:
            return False
    return True


def bcast_to(x: "DenseTensor | float", shape: tuple[int, ...]) -> DenseTensor:
    """Replicate a scalar or a smaller tensor to ``shape``."""
    if isinstance(x, DenseTensor):
        if not can_expand(x.shape, shape):
            raise ValueError(f"cannot broadcast {x.shape} to {shape}")
        return DenseTensor._own(np.broadcast_to(x.data, shape))
    return DenseTensor.full(shape, float(x))


# ------------------------------------------------- elementwise kernels


def _np2(op, a, b):
    da = a.data if isinstance(a, DenseTensor) else a
    db = b.data if isinstance(b, DenseTensor) else b
    return DenseTensor._own(op(da, db))


def add(a, b):
    if not isinstance(a, DenseTensor) and not isinstance(b, DenseTensor):
        return a + b
    return _np2(np.add, a, b)


def sub(a, b):
    if not isinstance(a, DenseTensor) and not isinstance(b, DenseTensor):
        return a - b
    return _np2(np.subtract, a, b)


def mul(a, b):
    if not isinstance(a, DenseTensor) and not isinstance(b, DenseTensor):
        return a * b
    return _np2(np.multiply, a, b)


def div(a, b):
    if not isinstance(a, DenseTensor) and not isinstance(b, DenseTensor):
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    return _np2(_divide, a, b)


def _divide(a, b):
    """np.divide of arrays or floats, refusing a zero divisor of either sign."""
    if not (b.all() if isinstance(b, np.ndarray) else b):
        raise DomainError("division by zero")
    return np.divide(a, b)


def neg(a):
    if not isinstance(a, DenseTensor):
        return -a
    return DenseTensor._own(np.negative(a.data))


def scalar_exp(x: float) -> float:
    """math.exp, except that an overflow gives +inf, as numpy and the
    other kernels do, instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def scalar_sigmoid(x: float) -> float:
    return 1.0 / (1.0 + scalar_exp(-x))


def scalar_relu(x: float) -> float:
    return x if x > 0.0 else 0.0


def scalar_pow_int(x: float, n: int) -> float:
    """x**n by left-to-right repeated multiplication, n >= 0."""
    acc = 1.0
    for _ in range(n):
        acc = acc * x
    return acc


def scalar_log(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"log of non-positive value {x!r}")
    return math.log(x)


SCALAR_UNARY: dict[str, Callable[[float], float]] = {
    "exp": scalar_exp,
    "log": scalar_log,
    "tanh": math.tanh,
    "sigmoid": scalar_sigmoid,
    "relu": scalar_relu,
}


def unary_math(name: str, a: DenseTensor) -> DenseTensor:
    """Elementwise transcendental via per-element math.* calls."""
    return DenseTensor._own(_map(SCALAR_UNARY[name], a.data))


def _map(f: Callable[[float], float], arr: np.ndarray) -> np.ndarray:
    """f of each element of arr, one Python call each, in arr's shape."""
    out = np.fromiter(map(f, arr.reshape(-1).tolist()), dtype=np.float64, count=arr.size)
    return out.reshape(arr.shape)


def pow_int(a: DenseTensor, n: int) -> DenseTensor:
    out = np.fromiter(map(scalar_pow_int, a.data.reshape(-1).tolist(), repeat(n)),
                      dtype=np.float64, count=a.data.size)
    return DenseTensor._own(out.reshape(a.shape))


_COMPARES = {"lt": np.less, "gt": np.greater, "eq": np.equal}


def compare(op: str, a, b) -> DenseTensor:
    """Elementwise comparison (lt, gt or eq) producing a 0/1 mask tensor."""
    da = a.data if isinstance(a, DenseTensor) else a
    db = b.data if isinstance(b, DenseTensor) else b
    return DenseTensor._own(_compare(op, da, db))


def _compare(op: str, a, b) -> np.ndarray:
    return _COMPARES[op](a, b).astype(np.float64)


def select_mask(mask: DenseTensor, a, b) -> DenseTensor:
    """Pick ``a`` where the mask tensor is nonzero, ``b`` elsewhere, exactly."""
    da = a.data if isinstance(a, DenseTensor) else float(a)
    db = b.data if isinstance(b, DenseTensor) else float(b)
    return DenseTensor._own(_where(mask.data, da, db))


def _where(mask: np.ndarray, a, b) -> np.ndarray:
    # a float64 mask's truth is ``mask != 0.0``: NaN picks a, -0.0 picks b
    return np.where(mask, a, b)


# --------------------------------------------------------- reductions


def _reduce_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    # Ascending left folds for a C-contiguous arr: add.reduce on axis 0
    # adds whole rows from -0.0, the exact identity (numpy's +0.0 turns
    # -0.0 sums positive); where the axis would be the innermost loop,
    # which add.reduce sums pairwise, the last slice of cumsum.
    if arr.shape[axis] == 1:
        return arr.take(0, axis=axis)
    if axis == 0 and arr.size > arr.shape[0]:
        return np.add.reduce(arr, 0, initial=-0.0)
    return arr.cumsum(axis).take(-1, axis)


def _sum(arr: np.ndarray, axis: "int | str") -> "np.ndarray | float":
    """reduce_sum on a C-contiguous array: an array, or a float where
    axis is "all" or arr has rank 1."""
    if axis == "all":
        while arr.ndim > 1:
            arr = _reduce_axis(arr, 0)
        return _seq_sum(arr)
    if arr.ndim == 1:
        return _seq_sum(arr)
    return _reduce_axis(arr, axis)


def reduce_sum(t: DenseTensor, axis: "int | str") -> "DenseTensor | float":
    """Sum along one axis, or fold to a scalar with axis="all".

    axis="all" folds the leading axis repeatedly, so it is exactly
    reduce_sum(all, reduce_sum(0, x)) by construction.
    """
    if axis != "all":
        axis = int(axis)
        if not 0 <= axis < t.rank:
            raise ValueError(f"axis {axis} out of range for shape {t.shape}")
    out = _sum(t.data, axis)
    return out if isinstance(out, float) else DenseTensor._own(out)


def _seq_sum(arr: np.ndarray) -> float:
    if arr.size == 1:
        return float(arr[0])
    return float(arr.cumsum()[-1])


# ------------------------------------------------------ linear algebra


def matmul(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Matrix product with ascending-k summation order, on rank-2
    operands or on rank-3 ones that share a leading (lane) extent.

    The kernel forms all products as (k, m, n), or (k, lanes, m, n), in
    C order (a ufunc's output otherwise follows its inputs' layout) so
    that k is the outer loop, and folds axis 0 with ``_reduce_axis``.
    That is bit-identical to ``for i: for j: for k: acc += a[i,k]*b[k,j]``
    in each lane; BLAS ``@`` is not.
    """
    if (a.rank != b.rank or a.rank not in (2, 3) or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ValueError(f"matmul shapes {a.shape} x {b.shape}")
    return DenseTensor._own(_matmul(a.data, b.data))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul's product of two arrays of the shapes it accepts."""
    if a.ndim == 2:
        prod = np.multiply(a.T[:, :, None], b[:, None, :], order="C")
    else:
        prod = np.multiply(a.transpose(2, 0, 1)[..., None],
                           b.transpose(1, 0, 2)[..., None, :], order="C")
    return _reduce_axis(prod, 0)


def transpose(t: DenseTensor) -> DenseTensor:
    """Swap the last two axes (rank >= 2)."""
    if t.rank < 2:
        raise ValueError("transpose needs rank >= 2")
    return DenseTensor._own(t.data.swapaxes(-1, -2))


def reshape(t: DenseTensor, shape: tuple[int, ...]) -> DenseTensor:
    if not shape or math.prod(shape) != t.data.size:
        raise ValueError(f"cannot reshape {t.shape} to {shape}")
    return DenseTensor._own(t.data.reshape(shape))


# ------------------------------------------------------ stacking


def stack(tensors: Sequence[DenseTensor], axis: int = 0) -> DenseTensor:
    if not tensors:
        raise ValueError("stack of nothing")
    shape = tensors[0].shape
    for t in tensors:
        if t.shape != shape:
            raise ValueError(f"stack of mismatched shapes {t.shape} vs {shape}")
    return DenseTensor._own(np.stack([t.data for t in tensors], axis=axis))


def take(t: DenseTensor, index: int, axis: int = 0) -> "DenseTensor | float":
    """One slice along an axis; rank-1 input yields a plain float."""
    if not 0 <= index < t.shape[axis]:
        raise ValueError(f"index {index} out of range on axis {axis} of {t.shape}")
    sl = t.data.take(index, axis=axis)
    if sl.ndim == 0:
        return float(sl)
    return DenseTensor._own(sl)
