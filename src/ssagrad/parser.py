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
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

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


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<tensor>tensor<[0-9]+(?:x[0-9]+)*xf64>)
    | (?P<num>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|-inf)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<arrow>->)
    | (?P<punct>[@%^(){}\[\],:=<>])
    """,
    re.VERBOSE,
)
_INT_RE = re.compile(r"-?[0-9]+")

_SCALAR_TYPES = {"f64": F64, "bool": BOOL, "i64": I64, "tape": TAPE}


class _Tok(NamedTuple):
    kind: str  # "tensor" | "num" | "ident" | "arrow" | "punct" | "eof"
    text: str
    line: int
    col: int


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos, line, bol = 0, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(line, pos - bol + 1, f"unexpected character {src[pos]!r}")
        kind = m.lastgroup or ""
        text = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, text, line, m.start() - bol + 1))
        nl = text.count("\n")
        if nl:
            line += nl
            bol = m.start() + text.rindex("\n") + 1
        pos = m.end()
    toks.append(_Tok("eof", "", line, len(src) - bol + 1))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0
        # per function: value ids by name, block names seen, and the
        # first token naming each value or block not yet defined
        self.fn = Function("")
        self.ids: dict[str, int] = {}
        self.blocks: set[str] = set()
        self.unresolved: dict[str, tuple[_Tok, str]] = {}

    # ------------------------------------------------- token helpers

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg: str, tok: _Tok | None = None):
        t = tok or self.peek()
        raise ParseError(t.line, t.col, msg)

    def at(self, text: str) -> bool:
        # the eof token's text is empty, so it matches no caller's text
        return self.toks[self.i].text == text

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            got = "end of input" if t.kind == "eof" else repr(t.text)
            self.error(f"expected {text!r}, got {got}")
        return self.next()

    def expect_ident(self, what: str) -> _Tok:
        if self.peek().kind != "ident":
            self.error(f"expected {what}")
        return self.next()

    def commas(self, item: Callable[[], object]) -> list:
        """One or more items separated by commas."""
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return out

    def enclosed(self, open_: str, close: str, item: Callable[[], object]) -> list:
        """Items between open_ and close, each optionally followed by a comma."""
        self.expect(open_)
        out = []
        while not self.at(close):
            out.append(item())
            if self.at(","):
                self.next()
        self.expect(close)
        return out

    # ------------------------------------------------------- pieces

    def parse_type(self) -> Type:
        t = self.peek()
        if t.kind == "tensor":
            dims = [int(d) for d in t.text[len("tensor<"):-len("xf64>")].split("x")]
            if any(d < 1 for d in dims):
                self.error("tensor extents must be positive", t)
            self.next()
            return tensor_type(*dims)
        if t.text in _SCALAR_TYPES:
            self.next()
            return _SCALAR_TYPES[t.text]
        if t.text == "tapes":
            self.next()
            self.expect("<")
            n = self.peek()
            lanes = self.parse_int("lane count")
            if lanes < 1:
                self.error("tapes lane count must be positive", n)
            self.expect(">")
            return tapes_type(lanes)
        self.error("unknown type literal")
        raise AssertionError

    def parse_int(self, what: str) -> int:
        t = self.peek()
        if t.kind != "num" or not _INT_RE.fullmatch(t.text):
            self.error(f"expected integer {what}")
        self.next()
        return int(t.text)

    def parse_float(self) -> float:
        t = self.peek()
        if t.kind == "num" or t.text in ("inf", "nan"):
            self.next()
            return float(t.text)
        self.error("expected number")
        raise AssertionError

    def use(self) -> int:
        """A value read: its id, allocated here if the name is new."""
        tok = self.expect("%")
        name = self.expect_ident("value name").text
        vid = self.ids.get(name)
        if vid is None:
            vid = self.ids[name] = self.fn.new_value(name)
            self.unresolved["%" + name] = (tok, f"use of undefined value %{name}")
        return vid

    def define(self) -> int:
        """A value definition: its id; a second definition is an error."""
        tok = self.expect("%")
        name = self.expect_ident("value name").text
        vid = self.ids.get(name)
        if vid is None:
            vid = self.ids[name] = self.fn.new_value(name)
        elif self.unresolved.pop("%" + name, None) is None:
            self.error(f"redefinition of %{name}", tok)
        return vid

    def parse_param(self) -> tuple[int, Type]:
        vid = self.define()
        self.expect(":")
        return vid, self.parse_type()

    def parse_params(self) -> list[tuple[int, Type]]:
        return self.commas(self.parse_param) if self.at("%") else []

    def parse_attr_value(self) -> object:
        t = self.peek()
        if t.text == "@":
            self.next()
            return FnRef(self.expect_ident("function name").text)
        if t.text == "[":
            return tuple(self.enclosed("[", "]", lambda: self.parse_int("extent")))
        if t.text in ("true", "false"):
            self.next()
            return t.text == "true"
        if t.kind == "num" and _INT_RE.fullmatch(t.text):
            self.next()
            return int(t.text)
        if t.kind == "tensor" or t.text in _SCALAR_TYPES or t.text == "tapes":
            return self.parse_type()
        if t.kind == "ident":
            self.next()
            return t.text
        self.error("expected attribute value")
        raise AssertionError

    def parse_attr(self) -> tuple[str, object]:
        key = self.expect_ident("attribute name").text
        self.expect("=")
        return key, self.parse_attr_value()

    def parse_const_payload(self, ty: Type, tok: _Tok) -> object:
        if ty.kind == "f64":
            return self.parse_float()
        if ty.kind == "i64":
            return self.parse_int("constant")
        if ty.kind == "bool":
            t = self.next()
            if t.text not in ("true", "false"):
                self.error("expected true or false", t)
            return t.text == "true"
        if ty.is_tensor:
            return tuple(self.enclosed("[", "]", self.parse_float))
        self.error(f"constants of type {ty} are not allowed", tok)
        raise AssertionError

    # ----------------------------------------------- blocks and funcs

    def parse_instr(self) -> Instruction:
        result = self.define()
        self.expect("=")
        op_tok = self.expect_ident("op name")
        op = op_tok.text
        if op == "const":
            ty = self.parse_type()
            return Instruction(result, op, (), {"ty": ty, "value": self.parse_const_payload(ty, op_tok)})
        # operands live on the op's line; a % opening the next line is the
        # next instruction (matters for zero-operand ops like tape_new)
        has_operands = self.at("%") and self.peek().line == op_tok.line
        operands = tuple(self.commas(self.use)) if has_operands else ()
        attrs = dict(self.enclosed("{", "}", self.parse_attr)) if self.at("{") else {}
        return Instruction(result, op, operands, attrs)

    def parse_block_ref(self, verb: str) -> tuple[str, tuple[int, ...]]:
        tok = self.expect("^")
        name = self.expect_ident("block name").text
        if name not in self.blocks:
            self.unresolved.setdefault("^" + name, (tok, f"{verb} to unknown block ^{name}"))
        args: tuple[int, ...] = ()
        if self.at("("):
            self.next()
            if self.at("%"):
                args = tuple(self.commas(self.use))
            self.expect(")")
        return name, args

    def parse_terminator(self) -> Terminator:
        t = self.peek()
        if t.text == "ret":
            self.next()
            return Ret(tuple(self.commas(self.use)) if self.at("%") else ())
        if t.text == "jmp":
            self.next()
            return Jmp(*self.parse_block_ref("jump"))
        if t.text == "br":
            self.next()
            cond = self.use()
            self.expect(",")
            then_target, then_args = self.parse_block_ref("branch")
            self.expect(",")
            return Br(cond, then_target, then_args, *self.parse_block_ref("branch"))
        self.error("expected a terminator (ret, jmp or br)")
        raise AssertionError

    def parse_block(self, header: list[tuple[int, Type]] | None) -> Block:
        """A block; the entry block gets the function's header parameters."""
        tok = self.expect("^")
        name_tok = self.expect_ident("block name")
        name = name_tok.text
        if name in self.blocks:
            self.error(f"redefinition of block ^{name}", tok)
        self.blocks.add(name)
        self.unresolved.pop("^" + name, None)
        params = header or []
        if self.at("("):
            if header is not None:
                self.error("entry block takes its parameters from the function header", name_tok)
            self.next()
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
        self.next()
        tys = [] if self.at(")") else self.commas(self.parse_type)
        self.expect(")")
        return tuple(tys)

    def parse_function(self) -> Function:
        self.expect("func")
        self.expect("@")
        self.fn = fn = Function(self.expect_ident("function name").text)
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
            tok, msg = next(iter(self.unresolved.values()))
            self.error(msg, tok)
        return fn

    def parse_module(self) -> Module:
        module = Module()
        if not self.at("func"):
            self.error("expected 'func'")
        while self.peek().kind != "eof":
            tok = self.peek()
            fn = self.parse_function()
            if fn.name in module.functions:
                self.error(f"duplicate function name @{fn.name}", tok)
            module.add(fn)
            if self.peek().kind != "eof" and not self.at("func"):
                self.error("expected 'func' or end of input")
        return module


def parse_ir(text: str) -> Module:
    """Parse module text; raises ParseError with line and column."""
    return _Parser(text).parse_module()
