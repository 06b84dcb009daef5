"""Typed lowering: a hot flat function as one generated Python function.

The walker (``Machine.run``) is the specification; ``lower`` caches it
as one ``def`` typed by ``structurize``.  SSA values are locals, several
blocks dispatch over their indices in one loop, and an edge binds block
parameters by a tuple assignment.  Constants are made once, ops with a
template below are inline code, and other ops call their ``KERNELS``
entry.  A block is charged ``len(body) + 1`` steps on entry, split
after each op that runs a function so that a callee starts on the
walker's exact budget.

Tensor values are unboxed.  A tensor that a template makes is a raw
ndarray local, and it is wrapped with ``DenseTensor._own`` once, where it
is made, only if it escapes: if it is pushed on a trace, returned, passed
along an edge, or read by ``call``, ``fused_map``, ``fused_pack`` or a
kernel.  Tensors that arrive boxed (parameters, ``tape_top`` results,
constants and kernel results) are read raw through ``.data``.  Every raw
array is C-contiguous, as a DenseTensor's is: ufuncs keep C order on
C-order operands, and a template copies any view that ``_own`` would
copy (``transpose``, ``bcast``), as the left folds of
``tensor._reduce_axis`` are exact only in C order.

The code returns None unless each argument's class fits its type, and
raises at an overdraw, at a ``tape_top`` value of another type and
wherever a template or kernel raises.  ``Machine.run`` then rolls the
budget back and replays the call on the walker: values are immutable
and traces persistent, so the replay is exact.
"""

from __future__ import annotations

import numpy as np  # noqa: F401 -- np, Tape, TapeBatch: read by lowered code

from . import tensor as T
from .interp import KERNELS, Tape, TapeBatch, zero_of  # noqa: F401
from .ir import Function, Jmp, Module, Ret, Type, term_uses
from .structure import structurize
from .tensor import DenseTensor

_RUNS = frozenset({"call", "fused_map", "fused_pack"})  # ops that run a function
_BOXED = _RUNS | {"tape_push", "tape_top"}  # templates that read and make boxed values
_CLASS = {"f64": "float", "i64": "int", "bool": "bool", "tensor": "DenseTensor", "tape": "Tape",
          "tapes": "TapeBatch"}
_own = DenseTensor._own


class _Replay(Exception):
    """The lowered call cannot go on; the walker runs it instead."""


def _is(x: str, ty: Type) -> str:
    """A test that the value named x is of type ty, as the templates assume."""
    shape = f" and {x}.data.shape == {ty.shape!r}" if ty.is_tensor else ""
    return f"type({x}) is {_CLASS[ty.kind]}{shape}"


def _infix(sym: str, tensor: str = "") -> dict:
    """sym on two f64 or two i64 scalars; tensor where either is a tensor."""
    out = {(k, k): f"{{0}} {sym} {{1}}" for k in ("f64", "i64")}
    if tensor:
        out.update(dict.fromkeys([("tensor", "tensor"), ("tensor", "f64"), ("f64", "tensor")],
                                 tensor))
    return out


# op -> {operand kinds (None: any): the result's expression of the operands
# {0}, {1}, ..., or of {args}, their boxed tuple; {a} is the attributes,
# {shape} the result's}.  Outside _BOXED, tensor operands and results are
# raw arrays, made by the numpy calls the op's kernel makes: inline for
# one call, else by the raw helper in tensor.py that the kernel calls too.
# Any other op calls its kernel on boxed operands.
TEMPLATES = {
    "add": _infix("+", "np.add({0}, {1})"),
    "sub": _infix("-", "np.subtract({0}, {1})"),
    "mul": _infix("*", "np.multiply({0}, {1})"),
    # a zero divisor raises (ZeroDivisionError, DomainError), and so replays
    "div": _infix("/", "T._divide({0}, {1})"),
    "neg": {("f64",): "-{0}", ("i64",): "-{0}", ("tensor",): "np.negative({0})"},
    **{op: {("f64",): f"{op}_({{0}})",
            ("tensor",): f"T._map({op}_, {{0}})"}
       for op in T.SCALAR_UNARY},
    **{op: _infix(sym, f"T._compare({op!r}, {{0}}, {{1}})")
       for op, sym in (("lt", "<"), ("gt", ">"), ("eq", "=="))},
    "select": {**{("bool", k, k): "{1} if {0} else {2}" for k in _CLASS},
               **{("tensor", x, y): "T._where({0}, {1}, {2})"
                  for x in ("tensor", "f64") for y in ("tensor", "f64")}},
    # _own copies a view that is not C-contiguous, and T._reduce_axis needs C order
    "transpose": {("tensor",): "np.ascontiguousarray({0}.swapaxes(-1, -2))"},
    "bcast": {("f64",): "np.full({shape}, {0}, dtype=np.float64)",
              ("tensor",): "np.ascontiguousarray(np.broadcast_to({0}, {shape}))"},
    "reshape": {("tensor",): "{0}.reshape({shape})"},
    "matmul": {("tensor", "tensor"): "T._matmul({0}, {1})"},
    "reduce_sum": {("tensor",): "T._sum({0}, {a[axis]!r})"},
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
    raises to replay (see above); StructureError if fn is ill-formed.
    The code's source is kept in ``fn.tier.source``."""
    types = structurize(fn, module).types
    env = {**globals(), **{op + "_": f for op, f in T.SCALAR_UNARY.items()}}

    def const(value) -> str:
        name = f"k{len(env)}"
        env[name] = value
        return name

    def tup(vids) -> str:
        return "(" + "".join(f"v{x}, " for x in vids) + ")"

    # each result's template, the tensors raw templates make, and the
    # values read boxed: a raw tensor among them escapes, wrapped once
    fmts, raw, boxed = {}, set(), {v for b in fn.blocks for v in term_uses(b)}
    for ins in (ins for b in fn.blocks for ins in b.body):
        by_kinds = TEMPLATES.get(ins.op, {})
        fmt = fmts[ins.result] = by_kinds.get(tuple(types[o].kind for o in ins.operands),
                                              by_kinds.get(None))
        if fmt is None or ins.op in _BOXED:
            boxed.update(ins.operands)
        elif types[ins.result].is_tensor:
            raw.add(ins.result)
    escapes = raw & boxed

    def ref(x: int, as_raw: bool) -> str:
        if x in raw:
            return f"r{x}" if as_raw else f"v{x}"
        return f"v{x}.data" if as_raw and types[x].is_tensor else f"v{x}"

    def instr(ins) -> list[str]:
        x, ty = ins.result, types[ins.result]
        if ins.op == "const":
            return [f"v{x} = {const(KERNELS['const'](None, ins.attrs, None, ()))}"]
        fmt = fmts[x]
        xs = [ref(o, fmt is not None and ins.op not in _BOXED) for o in ins.operands]
        if fmt is None:  # kernel(m, attrs, env, operand ids)
            ids = tuple(range(len(xs)))
            fmt = f"{const(KERNELS[ins.op])}(m, {const(ins.attrs)}, {{args}}, {ids})"
        elif ins.op == "tape_top":  # an empty tape's top: a zero of ty, made once
            xs.append(const(zero_of(ins.attrs["ty"])))
        callee = repr(ins.attrs["fn"].name) if ins.op in _RUNS else ""
        code = fmt.format(*xs, fn=callee, args=tup(ins.operands), a=ins.attrs, shape=ty.shape)
        lines = [f"{ref(x, x in raw)} = {code}"] + [f"v{x} = _own(r{x})"] * (x in escapes)
        if ins.op == "tape_top":  # a trace holds whatever the walker pushed
            lines.append(f"if not ({_is(f'v{x}', ty)}): raise _Replay")
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
    fn.tier.source = "\n".join(lines)
    exec(compile(fn.tier.source, f"<lowered @{fn.name}>", "exec"), env)
    return env.pop("lowered")  # env is the code's globals: holding it would be a cycle
