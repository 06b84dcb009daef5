"""Textual IR parser.

Grammar sketch (whitespace-insensitive, // comments):

    module := func*
    func   := "func" "@" ident "(" params? ")" "->" results "{" block+ "}"
    params := "%" ident ":" type ("," ...)*
    results:= type | "(" ")" | "(" type ("," type)* ")" | type ("," type)*
    type   := "f64" | "bool" | "i64" | "tape" | "tapes" "<" int ">"
            | "tensor<" int ("x" int)* "xf64>"
    block  := "^" ident ("(" params ")")? ":" instr* term
    instr  := "%" ident "=" "const" type payload
            | "%" ident "=" opname operands? attrs?
    term   := "ret" operands? | "jmp" "^" ident args?
            | "br" "%" ident "," "^" ident args? "," "^" ident args?
    attrs  := "{" ident "=" value ("," ...)* "}"

One pass builds the IR.  A value gets its id the first time its name is
seen, as a definition or a use, so textually forward references parse
fine and are left for the verifier's dominance check to judge.  A second
definition is reported at once.  Names never defined and jumps to blocks
that never appear are reported when the function ends, at the first
``%`` or ``^`` that named them, in text order.

The lexer is one ``findall``, whose matches tile the text: each is the
whitespace before a token and the token's text, or, at a stray
character, the rest of the text.  Comments are dropped and ``("", "")``
ends the list.  The parser asks a token's kind (``_kind``) only where
the grammar needs it, and reads the whitespace only to keep operands on
their op's line: a ``%`` after a newline starts the next instruction.

Lines and columns are worked out only for an error, when it is raised:
``_positions`` scans the text once for every token's line (ended by
newlines only) and column, and the error takes its token's.
"""

from __future__ import annotations

import re
from typing import Callable

from .ir import (
    BOOL,
    F64,
    I64,
    TAPE,
    Block,
    Br,
    FnRef,
    Function,
    Instruction,
    Jmp,
    Module,
    Ret,
    Terminator,
    Type,
    tapes_type,
    tensor_type,
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# whitespace, then a token: punctuation, a tensor type, name, number,
# arrow or comment (to the end of its line); where no token follows the
# whitespace, the rest of the text, groups empty
_TOKEN_RE = re.compile(
    r"(\s*)([@%^(){}\[\],:=<>]|tensor<[0-9]+(?:x[0-9]+)*xf64>|[A-Za-z_][A-Za-z0-9_]*"
    r"|-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|-inf|->|//[^\n]*)|[\s\S]+"
)
_INT_RE = re.compile(r"-?[0-9]+")

_SCALAR_TYPES = {"f64": F64, "bool": BOOL, "i64": I64, "tape": TAPE}


def _kind(text: str) -> str:
    """A lexed token's kind, from its text alone."""
    if text.isidentifier():  # lexed text is ASCII: [A-Za-z_][A-Za-z0-9_]*
        return "ident"
    if text in ("", "->"):
        return "arrow" if text else "eof"
    return "tensor" if text[0] == "t" else "num" if text[0] in "-0123456789" else "punct"


def _lex(src: str) -> list[tuple[str, str]]:
    """The (whitespace, text) pair of each token, comments dropped, then
    ("", "") for the end; raises at the first stray character."""
    toks = _TOKEN_RE.findall(src.rstrip())  # trailing whitespace would read as a stray
    if "//" in src:
        toks = [t for t in toks if t[1][:2] != "//"]
    if toks and not toks[-1][1]:
        off, line, col = _positions(src)[len(toks) - 1]
        raise ParseError(line, col, f"unexpected character {src[off]!r}")
    toks.append(("", ""))
    return toks


def _positions(src: str) -> list[tuple[int, int, int]]:
    """Offset, line and column of the first character of each match of
    ``_lex``'s ``findall`` but comments, then of the end, in one scan."""
    starts = [m.end() - len(t) for m in _TOKEN_RE.finditer(src.rstrip())
              if (t := m[0].lstrip())[:2] != "//"]
    out, line, last = [], 1, 0
    for off in starts + [len(src)]:
        line += src.count("\n", last, off)
        out.append((off, line, off - src.rfind("\n", 0, off)))
        last = off
    return out


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _lex(src)
        self.i = 0
        # per function: value ids by name, block names seen, and the index
        # of the first token naming each value or block not yet defined
        self.fn = Function("")
        self.ids: dict[str, int] = {}
        self.blocks: set[str] = set()
        self.unresolved: dict[str, tuple[int, str]] = {}

    # ------------------------------------------------- token helpers

    def peek(self) -> str:
        return self.toks[self.i][1]

    def error(self, msg: str, at: int | None = None):
        """Raise at token ``at``, else at the next one."""
        _, line, col = _positions(self.src)[self.i if at is None else at]
        raise ParseError(line, col, msg)

    def at(self, text: str) -> bool:
        # the end's text is empty, so it matches no caller's text
        return self.toks[self.i][1] == text

    def expect(self, text: str) -> int:
        """Consume ``text``; its token's index."""
        i = self.i
        t = self.toks[i][1]
        if t != text:
            self.error(f"expected {text!r}, got {repr(t) if t else 'end of input'}")
        self.i = i + 1
        return i

    def expect_ident(self, what: str) -> str:
        t = self.toks[self.i][1]
        if not t.isidentifier():  # _kind's test for a name
            self.error(f"expected {what}")
        self.i += 1
        return t

    def commas(self, item: Callable[[], object]) -> list:
        """One or more items separated by commas."""
        out = [item()]
        while self.at(","):
            self.i += 1
            out.append(item())
        return out

    def enclosed(self, open_: str, close: str, item: Callable[[], object]) -> list:
        """Items between open_ and close, each optionally followed by a comma."""
        self.expect(open_)
        out = []
        while not self.at(close):
            out.append(item())
            if self.at(","):
                self.i += 1
        self.expect(close)
        return out

    # ------------------------------------------------------- pieces

    def parse_type(self) -> Type:
        t = self.peek()
        if t.startswith("tensor<"):
            dims = [int(d) for d in t[len("tensor<"):-len("xf64>")].split("x")]
            if any(d < 1 for d in dims):
                self.error("tensor extents must be positive")
            self.i += 1
            return tensor_type(*dims)
        if t in _SCALAR_TYPES:
            self.i += 1
            return _SCALAR_TYPES[t]
        if t == "tapes":
            self.i += 1
            self.expect("<")
            n = self.i
            lanes = self.parse_int("lane count")
            if lanes < 1:
                self.error("tapes lane count must be positive", n)
            self.expect(">")
            return tapes_type(lanes)
        self.error("unknown type literal")
        raise AssertionError

    def parse_int(self, what: str) -> int:
        t = self.peek()
        if not _INT_RE.fullmatch(t):
            self.error(f"expected integer {what}")
        self.i += 1
        return int(t)

    def parse_float(self) -> float:
        t = self.peek()
        if _kind(t) == "num" or t in ("inf", "nan"):
            self.i += 1
            return float(t)
        self.error("expected number")
        raise AssertionError

    def use(self) -> int:
        """A value read: its id, allocated here if the name is new."""
        at = self.expect("%")
        name = self.expect_ident("value name")
        vid = self.ids.get(name)
        if vid is None:
            vid = self.ids[name] = self.fn.new_value(name)
            self.unresolved["%" + name] = (at, f"use of undefined value %{name}")
        return vid

    def define(self) -> int:
        """A value definition: its id; a second definition is an error."""
        at = self.expect("%")
        name = self.expect_ident("value name")
        vid = self.ids.get(name)
        if vid is None:
            vid = self.ids[name] = self.fn.new_value(name)
        elif self.unresolved.pop("%" + name, None) is None:
            self.error(f"redefinition of %{name}", at)
        return vid

    def parse_param(self) -> tuple[int, Type]:
        vid = self.define()
        self.expect(":")
        return vid, self.parse_type()

    def parse_params(self) -> list[tuple[int, Type]]:
        return self.commas(self.parse_param) if self.at("%") else []

    def parse_attr_value(self) -> object:
        t = self.peek()
        if t == "@":
            self.i += 1
            return FnRef(self.expect_ident("function name"))
        if t == "[":
            return tuple(self.enclosed("[", "]", lambda: self.parse_int("extent")))
        if t in ("true", "false"):
            self.i += 1
            return t == "true"
        if _INT_RE.fullmatch(t):
            self.i += 1
            return int(t)
        if t.startswith("tensor<") or t in _SCALAR_TYPES or t == "tapes":
            return self.parse_type()
        if t.isidentifier():
            self.i += 1
            return t
        self.error("expected attribute value")
        raise AssertionError

    def parse_attr(self) -> tuple[str, object]:
        key = self.expect_ident("attribute name")
        self.expect("=")
        return key, self.parse_attr_value()

    def parse_const_payload(self, ty: Type, op_at: int) -> object:
        if ty.kind == "f64":
            return self.parse_float()
        if ty.kind == "i64":
            return self.parse_int("constant")
        if ty.kind == "bool":
            t = self.peek()
            if t not in ("true", "false"):
                self.error("expected true or false")
            self.i += 1
            return t == "true"
        if ty.is_tensor:
            return tuple(self.enclosed("[", "]", self.parse_float))
        self.error(f"constants of type {ty} are not allowed", op_at)
        raise AssertionError

    # ----------------------------------------------- blocks and funcs

    def parse_instr(self) -> Instruction:
        result = self.define()
        self.expect("=")
        op_at = self.i
        op = self.expect_ident("op name")
        if op == "const":
            ty = self.parse_type()
            return Instruction(result, op, (), {"ty": ty, "value": self.parse_const_payload(ty, op_at)})
        # operands live on the op's line; a % opening the next line is the
        # next instruction (matters for zero-operand ops like tape_new)
        ws, t = self.toks[self.i]
        operands = tuple(self.commas(self.use)) if t == "%" and "\n" not in ws else ()
        attrs = dict(self.enclosed("{", "}", self.parse_attr)) if self.at("{") else {}
        return Instruction(result, op, operands, attrs)

    def parse_block_ref(self, verb: str) -> tuple[str, tuple[int, ...]]:
        at = self.expect("^")
        name = self.expect_ident("block name")
        if name not in self.blocks:
            self.unresolved.setdefault("^" + name, (at, f"{verb} to unknown block ^{name}"))
        args: tuple[int, ...] = ()
        if self.at("("):
            self.i += 1
            if self.at("%"):
                args = tuple(self.commas(self.use))
            self.expect(")")
        return name, args

    def parse_terminator(self) -> Terminator:
        t = self.peek()
        if t == "ret":
            self.i += 1
            return Ret(tuple(self.commas(self.use)) if self.at("%") else ())
        if t == "jmp":
            self.i += 1
            return Jmp(*self.parse_block_ref("jump"))
        if t == "br":
            self.i += 1
            cond = self.use()
            self.expect(",")
            then_target, then_args = self.parse_block_ref("branch")
            self.expect(",")
            return Br(cond, then_target, then_args, *self.parse_block_ref("branch"))
        self.error("expected a terminator (ret, jmp or br)")
        raise AssertionError

    def parse_block(self, header: list[tuple[int, Type]] | None) -> Block:
        """A block; the entry block gets the function's header parameters."""
        at = self.expect("^")
        name = self.expect_ident("block name")
        if name in self.blocks:
            self.error(f"redefinition of block ^{name}", at)
        self.blocks.add(name)
        self.unresolved.pop("^" + name, None)
        params = header or []
        if self.at("("):
            if header is not None:
                self.error("entry block takes its parameters from the function header",
                           at + 1)  # at the name
            self.i += 1
            params = self.parse_params()
            self.expect(")")
        self.expect(":")
        block = Block(name, params)
        while self.at("%"):
            block.body.append(self.parse_instr())
        block.term = self.parse_terminator()
        return block

    def parse_results(self) -> tuple[Type, ...]:
        if not self.at("("):
            return tuple(self.commas(self.parse_type))
        self.i += 1
        tys = [] if self.at(")") else self.commas(self.parse_type)
        self.expect(")")
        return tuple(tys)

    def parse_function(self) -> Function:
        self.expect("func")
        self.expect("@")
        self.fn = fn = Function(self.expect_ident("function name"))
        self.ids, self.blocks, self.unresolved = {}, set(), {}
        self.expect("(")
        header = self.parse_params()
        self.expect(")")
        self.expect("->")
        fn.results = self.parse_results()
        self.expect("{")
        fn.blocks.append(self.parse_block(header))
        while not self.at("}"):
            fn.blocks.append(self.parse_block(None))
        self.expect("}")
        if self.unresolved:
            # entries go in in text order and never come back once removed
            at, msg = next(iter(self.unresolved.values()))
            self.error(msg, at)
        return fn

    def parse_module(self) -> Module:
        module = Module()
        if not self.at("func"):
            self.error("expected 'func'")
        while self.peek():  # the end's text is empty
            at = self.i
            fn = self.parse_function()
            if fn.name in module.functions:
                self.error(f"duplicate function name @{fn.name}", at)
            module.add(fn)
            if self.peek() and not self.at("func"):
                self.error("expected 'func' or end of input")
        return module


def parse_ir(text: str) -> Module:
    """Parse module text; raises ParseError with line and column."""
    return _Parser(text).parse_module()
