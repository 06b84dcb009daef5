"""Core IR data structures and canonical printing.

The IR is a module of functions in SSA form with block arguments.  There
are no phi nodes: every cross-block value flows through the parameter
list of the target block.  Control flow is structured by construction,
meaning the only shapes ``structure.structurize`` (and so ``verify``)
admits are if/else diamonds that reconverge at a join block and while
loops with a single header.

Invariants the rest of the package relies on:

* Every value is defined exactly once, either as a block parameter or as
  an instruction result, and definitions dominate uses.
* The entry block is ``blocks[0]``, has no predecessors, and its
  parameters are the function parameters.
* Exactly one block ends in ``ret``.
* Printing is canonical: parse o print is the identity on the text, and
  two functions are considered structurally equal when their canonical
  text is equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class Type:
    """A value type.

    kind is one of "f64", "bool", "i64", "tensor", "tape", "tapes".
    ``shape`` is only meaningful for tensors (rank >= 1, extents >= 1).
    ``lanes`` is only meaningful for "tapes", the per-lane trace carrier
    used by batched functions.
    """

    kind: str
    shape: tuple[int, ...] = ()
    lanes: int = 0

    def __str__(self) -> str:
        if self.kind == "tensor":
            return "tensor<" + "x".join(str(d) for d in self.shape) + "xf64>"
        if self.kind == "tapes":
            return f"tapes<{self.lanes}>"
        return self.kind

    @property
    def is_tensor(self) -> bool:
        return self.kind == "tensor"

    @property
    def is_differentiable(self) -> bool:
        """Whether values of this type can carry a cotangent."""
        return self.kind in ("f64", "tensor")


F64 = Type("f64")
BOOL = Type("bool")
I64 = Type("i64")
TAPE = Type("tape")


@cache  # one Type per shape, so generated code does not hold copies
def tensor_type(*shape: int) -> Type:
    if not shape:
        raise ValueError("tensor types have rank >= 1")
    if any(d < 1 for d in shape):
        raise ValueError(f"tensor extents must be >= 1, got {shape}")
    return Type("tensor", tuple(shape))


def tapes_type(lanes: int) -> Type:
    if lanes < 1:
        raise ValueError("tapes<B> needs B >= 1")
    return Type("tapes", lanes=lanes)


@dataclass(frozen=True)
class FnRef:
    """Reference to another function in the module, used in attributes."""

    name: str

    def __str__(self) -> str:
        return "@" + self.name


# ----------------------------------------------------- instructions


@dataclass(slots=True)
class Instruction:
    result: int
    op: str
    operands: tuple[int, ...] = ()
    attrs: dict[str, object] = field(default_factory=dict)


@dataclass
class Ret:
    values: tuple[int, ...] = ()


@dataclass
class Jmp:
    target: str
    args: tuple[int, ...] = ()


@dataclass
class Br:
    cond: int
    then_target: str
    then_args: tuple[int, ...]
    else_target: str
    else_args: tuple[int, ...] = ()


Terminator = Ret | Jmp | Br


@dataclass
class Block:
    name: str
    params: list[tuple[int, Type]] = field(default_factory=list)
    body: list[Instruction] = field(default_factory=list)
    # None only ever appears in deliberately corrupted modules; the
    # parser cannot produce it and the verifier reports it.
    term: Terminator | None = None


def term_uses(block: Block) -> tuple[int, ...]:
    """The values a block's terminator reads."""
    t = block.term
    if isinstance(t, Ret):
        return t.values
    if isinstance(t, Jmp):
        return t.args
    if isinstance(t, Br):
        return (t.cond,) + t.then_args + t.else_args
    return ()


class Tier:
    """interp's cache on a Function: dispatches left before it is lowered,
    that code and its Python source."""

    heat = code = source = None  # until set on the instance

    def __deepcopy__(self, memo) -> "Tier":
        return Tier()  # a copy starts cold


@dataclass
class Function:
    """A function: entry block first, explicit result types.

    ``vnames`` maps value ids to their printed names.  Ids are assigned
    in definition order; names are kept so round trips and emitted
    artifacts stay readable.

    A function is not edited in place once it has run, as ``tier`` may
    hold code lowered from it; a ``copy.deepcopy`` starts cold.
    """

    name: str
    results: tuple[Type, ...] = ()
    blocks: list[Block] = field(default_factory=list)
    vnames: dict[int, str] = field(default_factory=dict)
    next_id: int = 0
    tier: Tier = field(default_factory=Tier, compare=False, repr=False, init=False)

    @property
    def params(self) -> list[tuple[int, Type]]:
        return self.blocks[0].params if self.blocks else []

    def new_value(self, name: str) -> int:
        vid = self.next_id
        self.next_id = vid + 1
        self.vnames[vid] = name
        return vid

    def value_name(self, vid: int) -> str:
        return self.vnames.get(vid, f"v{vid}")


@dataclass
class Module:
    """An ordered collection of functions.

    Insertion order is preserved by the printer, so emitting a module,
    printing it and parsing it back yields the same text.
    """

    functions: dict[str, Function] = field(default_factory=dict)

    def add(self, fn: Function) -> None:
        self.functions[fn.name] = fn

    def get(self, name: str) -> Function:
        if name not in self.functions:
            raise KeyError(f"no function @{name} in module")
        return self.functions[name]


@dataclass(frozen=True)
class Diagnostic:
    """A verifier finding, pinned to a function and block."""

    function: str
    block: str
    message: str

    def __str__(self) -> str:
        where = f"@{self.function}"
        if self.block:
            where += f" ^{self.block}"
        return f"{where}: {self.message}"


# ------------------------------------------------------------ printing


def _fmt_float(x: float) -> str:
    # repr gives the shortest round-tripping form
    return repr(float(x))


def _fmt_attr_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, tuple):
        return "[" + ", ".join(str(d) for d in v) + "]"
    if isinstance(v, (Type, FnRef)):
        return str(v)
    if isinstance(v, str):
        return v
    raise TypeError(f"unprintable attribute value {v!r}")


def _fmt_const_payload(ty: Type, value: object) -> str:
    if ty.kind == "f64":
        return _fmt_float(value)  # type: ignore[arg-type]
    if ty.kind == "i64":
        return str(int(value))  # type: ignore[arg-type]
    if ty.kind == "bool":
        return "true" if value else "false"
    if ty.kind == "tensor":
        flat = ", ".join(_fmt_float(x) for x in value)  # type: ignore[union-attr]
        return "[" + flat + "]"
    raise TypeError(f"const of type {ty} is not allowed")


def _fmt_instruction(fn: Function, ins: Instruction) -> str:
    name = fn.value_name(ins.result)
    if ins.op == "const":
        ty = ins.attrs["ty"]
        payload = _fmt_const_payload(ty, ins.attrs["value"])  # type: ignore[arg-type]
        return f"%{name} = const {ty} {payload}"
    parts = [f"%{name} = {ins.op}"]
    if ins.operands:
        parts.append(" " + ", ".join("%" + fn.value_name(o) for o in ins.operands))
    if ins.attrs:
        inner = ", ".join(
            f"{k} = {_fmt_attr_value(v)}" for k, v in sorted(ins.attrs.items())
        )
        parts.append(" {" + inner + "}")
    return "".join(parts)


def _fmt_args(fn: Function, args: tuple[int, ...]) -> str:
    if not args:
        return ""
    return "(" + ", ".join("%" + fn.value_name(a) for a in args) + ")"


def _fmt_terminator(fn: Function, term: Terminator | None) -> str:
    if term is None:
        return "// <missing terminator>"
    if isinstance(term, Ret):
        if not term.values:
            return "ret"
        return "ret " + ", ".join("%" + fn.value_name(v) for v in term.values)
    if isinstance(term, Jmp):
        return f"jmp ^{term.target}" + _fmt_args(fn, term.args)
    return (
        f"br %{fn.value_name(term.cond)}, ^{term.then_target}"
        + _fmt_args(fn, term.then_args)
        + f", ^{term.else_target}"
        + _fmt_args(fn, term.else_args)
    )


def _fmt_params(fn: Function, params: list[tuple[int, Type]]) -> str:
    return ", ".join(f"%{fn.value_name(v)}: {t}" for v, t in params)


def _fmt_results(results: tuple[Type, ...]) -> str:
    if len(results) == 1:
        return str(results[0])
    return "(" + ", ".join(str(t) for t in results) + ")"


def print_function(fn: Function) -> str:
    lines = [f"func @{fn.name}({_fmt_params(fn, fn.params)}) -> {_fmt_results(fn.results)} {{"]
    for block in fn.blocks:
        head = f"^{block.name}"
        if block.params and block is not fn.blocks[0]:
            head += "(" + _fmt_params(fn, block.params) + ")"
        lines.append(head + ":")
        for ins in block.body:
            lines.append("  " + _fmt_instruction(fn, ins))
        lines.append("  " + _fmt_terminator(fn, block.term))
    lines.append("}")
    return "\n".join(lines)


def print_ir(module: Module) -> str:
    """Canonical text for a module, functions in insertion order."""
    return "\n\n".join(print_function(fn) for fn in module.functions.values()) + "\n"
