"""Forward-mode evaluation of scalar subfunctions.

A Dual carries a primal and a k-wide tangent row.  Seeding the
arguments with identity rows and running once yields the value plus
all k partial derivatives; fused_pack stores these as rows of one
tensor so the reverse pass can contract against them later.

Forward mode restates no op.  It is a Machine whose kernel table wraps
each entry of ``KERNELS``: the wrapper runs the plain kernel on unboxed
primals, so the primal row of a pack is bit-identical to a plain
fused_map evaluation.  Partials come from the adjoint rules in
``RULES``, run on their numeric backend with a unit cotangent: the
tangent of an op is the sum over operands of partial_i * tangent_i.
Ops without a rule (const, itof) get zero tangents; ints and bools
pass through unboxed.  Over tensors a pack runs once on whole rows
(see ``interp``): primals, tangents and masks are rows, and rules see
each operand as the map's tensor type, so ``reduce_like`` broadcasts a
scalar partial instead of summing a row.  At one point any other value
(a tensor, a tape) raises DomainError: forward mode runs scalar code only.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .ir import F64, Function, Module, Type
from .interp import DEFAULT_STEP_LIMIT, KERNELS, EvalError, Machine
from .rules import NUMERIC, RULES, reduce_like, saved_values
from .tensor import DenseTensor, DomainError


class Dual:
    __slots__ = ("p", "t")

    def __init__(self, p: float, t: tuple[float, ...]):
        self.p = p
        self.t = t

    def __repr__(self):
        return f"Dual({self.p!r}, {self.t!r})"


def _lift(v, k: int) -> Dual:
    if isinstance(v, Dual):
        return v
    return Dual(float(v), (0.0,) * k)


def _dual_kernel(op: str, kernel):
    """kernel on unboxed primals, plus the tangent from op's rule."""
    rule = RULES.get(op)

    def dual(m, attrs, env, a):
        boxed = [env[o] for o in a]
        prims = [v.p if isinstance(v, Dual) else v for v in boxed]
        value = kernel(m, attrs, prims, range(len(prims)))
        if not (isinstance(value, float) or m.ty.is_tensor and isinstance(value, DenseTensor)):
            if isinstance(value, int):
                return value
            raise DomainError(f"op '{op}' is not scalar; forward mode runs scalar code only")
        if rule is None:
            # a mask, the row form of a bool, passes through unboxed
            return value if isinstance(value, DenseTensor) else Dual(value, m.zero)
        partials = rule.backward(
            NUMERIC, attrs, (m.ty,) * len(prims), saved_values(rule, prims, value), 1.0
        )
        t = m.zero
        for d, v in zip(partials, boxed):
            if d is not None:
                t = ([s + d * x for s, x in zip(t, v.t)] if m.ty is F64
                     else [T.add(s, T.mul(d, x)) for s, x in zip(t, v.t)])
        return Dual(value, tuple(t))
    return dual


class _DualMachine(Machine):
    """Machine over Duals on the budget it is given; rules see operands as ty."""

    # every value here is a scalar or a row, so a fused_map is a plain
    # call, and calls run boxed through the same walker
    kernels = {
        **{op: _dual_kernel(op, k) for op, k in KERNELS.items()},
        "call": KERNELS["call"],
        "fused_map": KERNELS["call"],
    }

    def __init__(self, module: Module, budget: list[int], k: int, ty: Type = F64):
        self.module = module
        self.budget = budget
        self.ty = ty
        self.zero = (0.0,) * k


def _check_scalar_fn(fn: Function):
    if len(fn.results) != 1 or fn.results[0].kind != "f64":
        raise ValueError(f"@{fn.name} must return a single f64")
    for _, ty in fn.params:
        if ty.kind != "f64":
            raise ValueError(f"@{fn.name} takes a non-f64 parameter")


@np.errstate(all="ignore")
def dual_eval(
    module: Module,
    name: str,
    args,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> Dual:
    """Run a scalar function on Dual arguments (floats get zero rows)."""
    fn = module.get(name)
    _check_scalar_fn(fn)
    widths = {len(v.t) for v in args if isinstance(v, Dual)}
    if len(widths) > 1:
        raise ValueError(f"mixed tangent widths {sorted(widths)}")
    k = widths.pop() if widths else 0
    return _DualMachine(module, [step_limit], k).run(fn, tuple(_lift(v, k) for v in args))[0]


def pack_rows(machine: Machine, fn: Function, args: tuple, ty: Type = F64) -> list:
    """fn's value and its partial d/d(arg i) for each i, at one point or
    on rows of type ty; draws on the machine's step budget."""
    k = len(args)
    seeded = tuple(Dual(v if ty.is_tensor else float(v), tuple(float(j == i) for j in range(k)))
                   for i, v in enumerate(args))
    out = _DualMachine(machine.module, machine.budget, k, ty).run(fn, seeded)[0]
    if not isinstance(out, Dual):
        raise EvalError(fn.name, "", -1, f"returns a {type(out).__name__}, not an f64")
    return [out.p, *out.t]


@np.errstate(all="ignore")
def fused_map_with_partials(
    module: Module,
    name: str,
    args,
    step_limit: int = DEFAULT_STEP_LIMIT,
):
    """Elementwise map of a scalar function plus per-element partials.

    Arguments broadcast like fused_map.  Returns (primal, partials)
    where partials[i] has the output shape and holds d out/d arg_i at
    every element.  All-scalar arguments give plain floats back.
    """
    fn = module.get(name)
    _check_scalar_fn(fn)
    if len(args) != len(fn.params):
        raise ValueError(f"@{fn.name} takes {len(fn.params)} arguments, got {len(args)}")
    m = Machine(module, step_limit)
    primal, *partials = m._fused(fn, list(args), lambda ty, a: pack_rows(m, fn, a, ty))
    return primal, partials


def fused_map_pullback(partials, arg_types, ybar):
    """Contract a result cotangent against saved partials.

    arg_types are the operand Types; broadcast axes fold back down so
    each cotangent matches its operand.
    """
    return tuple(
        reduce_like(NUMERIC, T.mul(ybar, part), ty)
        for part, ty in zip(partials, arg_types)
    )
