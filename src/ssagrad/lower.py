"""Typed lowering: a hot flat function as one generated Python function.

The walker (``Machine.run``) is the specification; ``lower`` caches it
as one ``def`` typed by ``structurize``.  SSA values are locals, several
blocks dispatch over their indices in one loop, and an edge binds block
parameters by a tuple assignment.  Constants are made once, ops with a
template below are inline code, and other ops call their ``KERNELS``
entry.  A block is charged ``len(body) + 1`` steps on entry, split
after each op that runs a function so that a callee starts on the
walker's exact budget.

The code returns None unless each argument's class fits its type, and
raises at an overdraw, at a ``tape_top`` value of another type and
wherever a template or kernel raises.  ``Machine.run`` then rolls the
budget back and replays the call on the walker: values are immutable
and traces persistent, so the replay is exact.
"""

from __future__ import annotations

import numpy as np  # noqa: F401 -- np, EMPTY_TAPE, Tape, TapeBatch: read by lowered code

from . import tensor as T
from .interp import EMPTY_TAPE, KERNELS, Tape, TapeBatch, zero_of  # noqa: F401
from .ir import Function, Jmp, Module, Ret, Type
from .structure import structurize
from .tensor import DenseTensor

_RUNS = frozenset({"call", "fused_map", "fused_pack"})  # ops that run a function
_CLASS = {"f64": "float", "i64": "int", "bool": "bool", "tensor": "DenseTensor", "tape": "Tape",
          "tapes": "TapeBatch"}
_own = DenseTensor._own


class _Replay(Exception):
    """The lowered call cannot go on; the walker runs it instead."""


def _is(x: str, ty: Type) -> str:
    """A test that the value named x is of type ty, as the templates assume."""
    shape = f" and {x}.data.shape == {ty.shape!r}" if ty.is_tensor else ""
    return f"type({x}) is {_CLASS[ty.kind]}{shape}"


def _infix(sym: str, ufunc: str = ""):
    """sym on two f64 or two i64 scalars; ufunc on tensors, as _np2 calls it."""
    out = {(k, k): f"{{0}} {sym} {{1}}" for k in ("f64", "i64")}
    if ufunc:
        out.update({("tensor", "tensor"): f"_own({ufunc}({{0}}.data, {{1}}.data))",
                    ("tensor", "f64"): f"_own({ufunc}({{0}}.data, {{1}}))",
                    ("f64", "tensor"): f"_own({ufunc}({{0}}, {{1}}.data))"})
    return out


# op -> {operand kinds (None: any): the result's expression of the operands
# {0}, {1}, ... or {args}, their tuple}; any other op calls its kernel
TEMPLATES = {
    "add": _infix("+", "np.add"),
    "sub": _infix("-", "np.subtract"),
    "mul": _infix("*", "np.multiply"),
    "div": _infix("/"),  # float division by 0.0 raises ZeroDivisionError, and so replays
    "neg": {("f64",): "-{0}", ("i64",): "-{0}"},
    **{op: {("f64",): f"{op}_({{0}})"} for op in T.SCALAR_UNARY},
    "lt": _infix("<"),
    "gt": _infix(">"),
    "eq": _infix("=="),
    "select": {("bool", k, k): "{1} if {0} else {2}" for k in _CLASS},
    "transpose": {("tensor",): "_own({0}.data.swapaxes(-1, -2))"},
    "tape_new": {(): "EMPTY_TAPE"},
    "tape_push": {("tape", k): "Tape({1}, {0})" for k in _CLASS},
    "tape_top": {("tape",): "{0}.top if {0}.rest is not None else {1}"},
    "tape_rest": {("tape",): "{0}.rest if {0}.rest is not None else {0}"},
    # inline kernel calls, to take the walker's Python frames per level of recursion
    "call": {None: "m.run(m.module.get({fn}), {args})[0]"},
    "fused_map": {None: "m._fused_map(m.module.get({fn}), {args})"},
    "fused_pack": {None: "m._fused_pack(m.module.get({fn}), {args})"},
}


def lower(fn: Function, module: Module):
    """fn as code(machine, args), which returns fn's results, None or
    raises to replay (see above); StructureError if fn is ill-formed."""
    types = structurize(fn, module).types
    env = {**globals(), **{op + "_": f for op, f in T.SCALAR_UNARY.items()}}

    def const(value) -> str:
        name = f"k{len(env)}"
        env[name] = value
        return name

    def tup(vids) -> str:
        return "(" + "".join(f"v{x}, " for x in vids) + ")"

    def instr(ins) -> list[str]:
        if ins.op == "const":
            return [f"v{ins.result} = {const(KERNELS['const'](None, ins.attrs, None, ()))}"]
        out, xs = f"v{ins.result}", [f"v{o}" for o in ins.operands]
        by_kinds = TEMPLATES.get(ins.op, {})
        fmt = by_kinds.get(tuple(types[o].kind for o in ins.operands), by_kinds.get(None))
        if fmt is None:  # kernel(m, attrs, env, operand ids)
            ids = tuple(range(len(xs)))
            fmt = f"{const(KERNELS[ins.op])}(m, {const(ins.attrs)}, {{args}}, {ids})"
        elif ins.op == "tape_top":  # an empty tape's top: a zero of ty, made once
            xs.append(const(zero_of(ins.attrs["ty"])))
        callee = repr(ins.attrs["fn"].name) if ins.op in _RUNS else ""
        lines = [f"{out} = {fmt.format(*xs, fn=callee, args=tup(ins.operands))}"]
        if ins.op == "tape_top":  # a trace holds whatever the walker pushed
            lines.append(f"if not ({_is(out, types[ins.result])}): raise _Replay")
        return lines

    index = {b.name: i for i, b in enumerate(fn.blocks)}

    def edge(target: str, args) -> list[str]:
        params = [p for p, _ in fn.blocks[index[target]].params]
        return [f"{tup(params)} = {tup(args)}"] * bool(params) + [f"blk = {index[target]}"]

    def block(b) -> list[str]:
        lines, charged = [], 0
        for cut in [j + 1 for j, ins in enumerate(b.body) if ins.op in _RUNS] + [len(b.body) + 1]:
            lines += [f"b[0] -= {cut - charged}", "if b[0] < 0: raise _Replay"]
            for ins in b.body[charged:cut]:
                lines += instr(ins)
            charged = cut
        t = b.term
        if isinstance(t, Ret):
            return lines + [f"return {tup(t.values)}"]
        if isinstance(t, Jmp):
            return lines + edge(t.target, t.args)
        return lines + [f"if v{t.cond}:", *(" " + x for x in edge(t.then_target, t.then_args)),
                        "else:", *(" " + x for x in edge(t.else_target, t.else_args))]

    fits = " and ".join(_is(f"v{p}", ty) for p, ty in fn.params) or "True"
    lines = ["def lowered(m, args):", f" {tup(p for p, _ in fn.params)} = args",
             f" if not ({fits}): return None", " b = m.budget"]
    if len(fn.blocks) == 1:
        lines += [" " + x for x in block(fn.blocks[0])]
    else:
        lines += [" blk = 0", " while True:"]
        for i, b in enumerate(fn.blocks):
            lines += [f"  {'el' * (i > 0)}if blk == {i}:", *("   " + x for x in block(b))]
    exec(compile("\n".join(lines), f"<lowered @{fn.name}>", "exec"), env)
    return env["lowered"]
