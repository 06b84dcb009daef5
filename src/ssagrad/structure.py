"""Structured view of functions: recovery, emission, and CFG analyses.

The transforms in this package (adjoint generation, batching) do not
walk raw block graphs.  They run on a structured tree recovered here,
of three node kinds: instructions (``SInstr``), if/else diamonds
(``SIf``) and while loops (``SWhile``).  A jump into a block with one
predecessor is no node at all: ``structurize`` reads the block's
parameters as renames of the jump's arguments.  It rejects anything
that is not in that shape, and ``flatten`` lowers a tree back to
blocks, always in canonical shape.

Every well-formedness rule lives here once, in the checks
``structurize`` runs before it recovers the tree: ``analyze_cfg`` for
the block graph and its dominator tree (a ``DomTree``, as are the
postdominators that place each join), ``check_ssa`` for single
definition and dominance, ``compute_types`` for typing and
``check_terminators`` for edge, ``ret`` and ``br`` types.  Each raises
``StructureError`` at its first violation, so every transform rejects
ill-formed code before touching it, and ``verify`` is a loop that
reports each function's error as a diagnostic.

Every loop comes back in one shape.  A loop header's block parameters
become the ``SWhile``'s carried values, its body sits on the taken edge
of the header branch, and the back edge is the jump at the end of the
body.  The header's instructions are rotated away: ``structurize``
copies them once before the loop, reading the initial values, and once
at the end of the body, reading the back-edge values, and carries every
header result.  The condition is then a carried value, exits read only
carried and outer values, and the header still runs once per test, so
steps are unchanged.  No returned tree holds a header instruction; only
code builders (``progen``, the vectorizer's lane-varying loops) fill
``SWhile.header``, for ``flatten``.

Tree analyses (``free_values``, ``drop_dead``, activity, lane analysis)
share one account of data flow: ``walk``, ``reads``, ``defs``, ``flows``
and ``closure``.  A tree pass is a module-level function or a method:
a nested function that calls itself is held by its own closure cell, a
cycle that keeps the tree alive until the cyclic collector runs, so
``structurize`` empties the cells of its nested ``recover`` and
``make_while`` before it returns.

``simplify`` forwards trace entries from push to use and computes each
repeated instruction once; ``drop_dead`` then removes what nothing reads.

Transforms build their output with an ``SEmitter``, and those that
copy a tree (inlining, the forward clone, batching) subclass ``Copier``.
It copies every if and loop, giving their merged, carried and exit
values fresh values named like the source ones, and threads a *state*
of extra values through them: each if merges its arms' state, and each
loop carries it.  Hooks change how an instruction, an edge argument or a
binding's type is copied, and may emit code at each arm's end, before a
loop and on its back edge.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from dataclasses import dataclass
from math import prod

from .ir import (BOOL, F64, I64, Block, Br, Diagnostic, FnRef, Function, Instruction, Jmp, Module,
                 Ret, Type, tensor_type, term_uses)
from .ops import OPS, OpTypeError, result_type


class StructureError(Exception):
    """Raised when a function is ill-formed or not in structured form.

    ``diagnostic`` pins the failure to its function and block (empty
    when it concerns the whole function); ``verify`` reports it as is.
    """

    def __init__(self, function: str, block: str, message: str):
        self.diagnostic = Diagnostic(function, block, message)
        super().__init__(str(self.diagnostic))


# ----------------------------------------------------------- CFG math


def successors(block: Block) -> list[str]:
    t = block.term
    if isinstance(t, Jmp):
        return [t.target]
    if isinstance(t, Br):
        return [t.then_target, t.else_target]
    return []


def predecessors(fn: Function) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.name: [] for b in fn.blocks}
    for b in fn.blocks:
        for s in successors(b):
            preds[s].append(b.name)
    return preds


def reverse_postorder(start: str, edges: dict[str, list[str]]) -> list[str]:
    """The nodes reachable from ``start`` along ``edges``, in reverse
    postorder.

    The depth-first search keeps its own stack, so a long chain of
    blocks does not exhaust Python's recursion limit.
    """
    seen = {start}
    order: list[str] = []
    stack = [(start, iter(edges[start]))]
    while stack:
        name, succs = stack[-1]
        for s in succs:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(edges[s])))
                break
        else:
            stack.pop()
            order.append(name)
    order.reverse()
    return order


class DomTree:
    """The dominator tree over ``order``, a reverse postorder from its
    root ``order[0]``, with each node's ``inputs`` as its predecessors.

    ``idom`` maps each node but the root to its immediate dominator, by
    Cooper, Harvey and Kennedy's iteration ("A Simple, Fast Dominance
    Algorithm", 2001); inputs outside ``order`` are ignored.  Each
    node's subtree is an interval of preorder numbers, so a dominance
    query is two comparisons.
    """

    def __init__(self, order: list[str], inputs: dict[str, list[str]]):
        root = order[0]
        if len(order) == 1:  # one node: nothing to iterate
            self.idom, self._span = {}, {root: (0, 1)}
            return
        index = {n: i for i, n in enumerate(order)}
        idom = {root: root}

        def meet(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for n in order[1:]:
                new = None
                for p in inputs[n]:
                    if p in idom:
                        new = p if new is None else meet(p, new)
                if idom.get(n) != new:
                    idom[n] = new
                    changed = True
        del idom[root]
        self.idom = idom

        # a node comes before its whole subtree in order: sizes add up
        # bottom-up, and preorder numbers are handed out top-down
        size = dict.fromkeys(order, 1)
        for n in reversed(order[1:]):
            size[idom[n]] += size[n]
        self._span = {root: (0, size[root])}
        free = {root: 1}  # the next number to give out in each subtree
        for n in order[1:]:
            lo = free[idom[n]]
            free[idom[n]] = lo + size[n]
            free[n] = lo + 1
            self._span[n] = (lo, lo + size[n])

    def dominates(self, a: str, b: str) -> bool:
        """Whether every path from the root to ``b`` passes ``a``; a node
        dominates itself."""
        lo, hi = self._span[a]
        return lo <= self._span[b][0] < hi


def analyze_cfg(fn: Function) -> tuple[DomTree, dict[str, list[str]], list[str]]:
    """Dominator tree, predecessors and reverse postorder of a
    well-formed block graph.

    Raises StructureError at the first violation: no blocks, a duplicate
    block name, a missing terminator, a jump to an unknown block, an
    unreachable block, or an entry block with predecessors.
    """
    if not fn.blocks:
        raise StructureError(fn.name, "", "function has no blocks")
    names: set[str] = set()
    for b in fn.blocks:
        if b.name in names:
            raise StructureError(fn.name, b.name, "duplicate block name")
        names.add(b.name)
    for b in fn.blocks:
        if b.term is None:
            raise StructureError(fn.name, b.name, "missing terminator")
        for t in successors(b):
            if t not in names:
                raise StructureError(fn.name, b.name, f"terminator targets unknown block ^{t}")
    entry = fn.blocks[0].name
    rpo = reverse_postorder(entry, {b.name: successors(b) for b in fn.blocks})
    reached = set(rpo)
    for b in fn.blocks:
        if b.name not in reached:
            raise StructureError(fn.name, b.name, "unreachable block")
    preds = predecessors(fn)
    if preds[entry]:
        raise StructureError(fn.name, entry, "entry block has predecessors")
    return DomTree(rpo, preds), preds, rpo


def check_ssa(fn: Function, dom: DomTree) -> None:
    """Every value defined once, and every definition dominating its uses.

    Raises StructureError at the first violation; definitions are all
    checked before any use.  A terminator's reads count as uses at the
    end of its block.
    """
    defblock: dict[int, str] = {}
    for b in fn.blocks:
        for vid in [pv for pv, _ in b.params] + [ins.result for ins in b.body]:
            if vid in defblock:
                raise StructureError(fn.name, b.name,
                                     f"%{fn.value_name(vid)} defined more than once")
            defblock[vid] = b.name

    for b in fn.blocks:
        seen = {vid for vid, _ in b.params}  # values b has defined so far
        for ins in [*b.body, None]:  # None stands for the terminator
            for o in ins.operands if ins else term_uses(b):
                if o not in seen:
                    # a value b has not defined itself is readable when
                    # its block strictly dominates b
                    site = defblock.get(o)
                    if site is None or site == b.name or not dom.dominates(site, b.name):
                        raise _use_error(fn, b.name, o, site)
            if ins:
                seen.add(ins.result)


def _use_error(fn: Function, block: str, vid: int, site: str | None) -> StructureError:
    if site is None:
        msg = f"use of undefined value %{fn.value_name(vid)}"
    elif site == block:
        msg = f"%{fn.value_name(vid)} used before its definition"
    else:
        msg = f"%{fn.value_name(vid)} does not dominate its use"
    return StructureError(fn.name, block, msg)


# --------------------------------------------------------- type walk


def compute_types(fn: Function, module: Module | None, rpo: list[str]) -> dict[int, Type]:
    """Type of every value of an SSA-checked function.

    Raises StructureError on an ill-typed op.  Blocks are walked in
    reverse postorder ``rpo``, which sees every dominating definition
    before its uses; cross-block cycles only flow through typed block
    parameters.
    """
    types: dict[int, Type] = {}
    blocks = {b.name: b for b in fn.blocks}
    for name in rpo:
        b = blocks[name]
        for vid, ty in b.params:
            types[vid] = ty
        for ins in b.body:
            opnd = tuple(types[o] for o in ins.operands)
            try:
                types[ins.result] = result_type(ins.op, opnd, ins.attrs, module)
            except OpTypeError as e:
                raise StructureError(fn.name, name, f"%{fn.value_name(ins.result)}: {e}") from e
    return types


def check_terminators(fn: Function, types: dict[int, Type]) -> None:
    """Edge arity and argument types, ret arity and types, bool br conditions.

    Raises StructureError at the first violation, in block order.
    """
    params = {b.name: b.params for b in fn.blocks}

    def fail(block: str, msg: str):
        raise StructureError(fn.name, block, msg)

    def check_edge(block: str, target: str, args: tuple[int, ...]):
        want = params[target]
        if len(args) != len(want):
            fail(block, f"edge to ^{target} passes {len(args)} args for {len(want)} params")
        for a, (pv, pty) in zip(args, want):
            if types[a] != pty:
                fail(block, f"edge to ^{target}: %{fn.value_name(a)} has type {types[a]}, "
                            f"param %{fn.value_name(pv)} wants {pty}")

    for b in fn.blocks:
        t = b.term
        if isinstance(t, Ret):
            if len(t.values) != len(fn.results):
                fail(b.name, f"ret carries {len(t.values)} values for {len(fn.results)} results")
            for v, rty in zip(t.values, fn.results):
                if types[v] != rty:
                    fail(b.name, f"ret value %{fn.value_name(v)} has type {types[v]}, want {rty}")
        elif isinstance(t, Jmp):
            check_edge(b.name, t.target, t.args)
        else:
            if types[t.cond] != BOOL:
                fail(b.name, f"br condition %{fn.value_name(t.cond)} has type {types[t.cond]}, "
                             "want bool")
            check_edge(b.name, t.then_target, t.then_args)
            check_edge(b.name, t.else_target, t.else_args)


# ----------------------------------------------------- region queries


def walk(nodes: list, out: list | None = None) -> list:
    """Every node of a region and of its nested regions, each if or loop
    before its regions' nodes, appended to ``out`` (by default a new list)."""
    out = [] if out is None else out
    for n in nodes:
        out.append(n)
        if isinstance(n, SIf):
            walk(n.then_region, out)
            walk(n.else_region, out)
        elif isinstance(n, SWhile):
            walk(n.body_region, out)
    return out


def reads(node) -> tuple[int, ...]:
    """The values a node reads itself, not those its regions' nodes read."""
    if isinstance(node, SInstr):
        return node.ins.operands
    if isinstance(node, SIf):
        return (node.cond, *node.then_args, *node.else_args)
    return (*node.init, node.cond, *node.body_args, *node.exit_args)


def defs(node) -> list[int]:
    """The values a node defines: a result, or an if's or loop's bindings."""
    if isinstance(node, SInstr):
        return [node.ins.result]
    if isinstance(node, SIf):
        return [v for v, _ in node.merged]
    return [v for v, _ in node.carried + node.exits]


def flows(node) -> list[tuple[int, int]]:
    """(source, value) pairs of a node's data flow: an instruction's
    operands flow to its result, and edge arguments to their bindings."""
    if isinstance(node, SInstr):
        return [(o, node.ins.result) for o in node.ins.operands]
    if isinstance(node, SIf):
        return list(zip(node.then_args + node.else_args, defs(node) * 2))
    return list(zip(node.init + node.body_args + node.exit_args,
                    [v for v, _ in node.carried * 2 + node.exits]))


def closure(seeds, edges) -> set[int]:
    """``seeds`` and every value reachable from them along ``edges``,
    (source, target) pairs."""
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen = set(seeds)
    work = list(seen)
    while work:
        for b in succ.get(work.pop(), ()):
            if b not in seen:
                seen.add(b)
                work.append(b)
    return seen


def free_values(nodes: list, out_args: tuple[int, ...] = ()) -> set[int]:
    """The values a region, together with the edge arguments it passes
    out, reads but does not define."""
    used: set[int] = set(out_args)
    defined: set[int] = set()
    for n in walk(nodes):
        used.update(reads(n))
        defined.update(defs(n))
    return used - defined


# ------------------------------------------------------- tree nodes


@dataclass
class SInstr:
    ins: Instruction


@dataclass
class SIf:
    cond: int
    then_region: list
    then_args: tuple[int, ...]
    else_region: list
    else_args: tuple[int, ...]
    merged: list[tuple[int, Type]]


@dataclass
class SWhile:
    carried: list[tuple[int, Type]]
    init: tuple[int, ...]
    # instructions run before each test of ``cond``; only code builders
    # fill it, for ``flatten``: ``structurize`` returns it empty
    header: list[Instruction]
    cond: int
    body_region: list
    body_args: tuple[int, ...]
    exits: list[tuple[int, Type]]
    exit_args: tuple[int, ...]


@dataclass
class SFunc:
    name: str
    params: list[tuple[int, Type]]
    results: tuple[Type, ...]
    region: list
    ret_vals: tuple[int, ...]
    types: dict[int, Type]
    vnames: dict[int, str]
    next_id: int


# -------------------------------------------------------- recovery


def structurize(fn: Function, module: Module | None = None) -> SFunc:
    """Recover the structured tree of a well-formed function.

    Raises StructureError at the first well-formedness violation, or
    when the function is not in structured form.  The tree ``verify``
    kept for ``fn`` is returned as is while ``module`` still holds the
    functions it was typed against (``ir.Tier``); callers do not change
    it.
    """
    if fn.tier.checked:
        sf, typed_by = fn.tier.checked
        if all(module is not None and (f := ref()) is not None and module.functions.get(name) is f
               for name, ref in typed_by):
            return sf
    dom, preds, rpo = analyze_cfg(fn)
    check_ssa(fn, dom)
    types = compute_types(fn, module, rpo)
    check_terminators(fn, types)
    blocks = {b.name: b for b in fn.blocks}
    rets = [b.name for b in fn.blocks if isinstance(b.term, Ret)]
    if len(rets) != 1:
        raise StructureError(fn.name, "", f"expected exactly one ret block, found {len(rets)}")
    # blocks that never reach the ret are not in the postdominator tree
    pdom = DomTree(reverse_postorder(rets[0], preds), {b.name: successors(b) for b in fn.blocks})

    # back edges and loop membership
    headers: dict[str, str] = {}  # header -> back edge source
    for b in fn.blocks:
        for s in successors(b):
            if dom.dominates(s, b.name):  # edge into a dominator: back edge
                if not isinstance(b.term, Jmp):
                    raise StructureError(fn.name, b.name, "back edges must be unconditional jumps")
                if s in headers:
                    raise StructureError(fn.name, s, "multiple back edges")
                if s == b.name:
                    raise StructureError(fn.name, s, "self loop")
                headers[s] = b.name

    def natural_loop(header: str, latch: str) -> frozenset[str]:
        body = {header, latch}
        work = [latch]
        while work:
            n = work.pop()
            if n == header:
                continue
            for p in preds[n]:
                if p not in body:
                    body.add(p)
                    work.append(p)
        return frozenset(body)

    # a jump into a block with one predecessor is a rename: its
    # parameters stand for the values the jump passes, and every later
    # read goes through this map
    rename: dict[int, int] = {}

    def read(vids: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(rename.get(v, v) for v in vids) if rename else vids

    def instrs(body: list[Instruction]) -> list[Instruction]:
        # instructions with no renamed operand are shared with fn
        if not rename:
            return body
        return [ins if rename.keys().isdisjoint(ins.operands)
                else Instruction(ins.result, ins.op, read(ins.operands), ins.attrs)
                for ins in body]

    vnames, ids = dict(fn.vnames), itertools.count(fn.next_id)
    used: dict[str, int] = {}  # fresh_name's table, filled on first use

    def rotated(header: list[Instruction], params: list, args: tuple) -> tuple[list, tuple]:
        # a copy of the header reading ``args`` for its block's ``params``,
        # and ``args`` followed by the copy's results
        sub = {pv: a for (pv, _), a in zip(params, args)}
        out = []
        for ins in header:
            if not used:
                used.update(dict.fromkeys(vnames.values(), 1))
            vid = next(ids)
            vnames[vid] = fresh_name(used, vnames.get(ins.result, "t"))
            types[vid] = types[ins.result]
            out.append(SInstr(Instruction(vid, ins.op, tuple(sub.get(o, o) for o in ins.operands),
                                          dict(ins.attrs))))
            sub[ins.result] = vid
        return out, args + tuple(sub[ins.result] for ins in header)

    def make_while(name: str, init: tuple[int, ...]) -> tuple[list, str]:
        b = blocks[name]
        if len(preds[name]) != 2:
            raise StructureError(fn.name, name, "loop header must have two predecessors")
        if not isinstance(b.term, Br):
            raise StructureError(fn.name, name, "loop header must end in br")
        latch = headers[name]
        loop = natural_loop(name, latch)
        t_in = b.term.then_target in loop
        e_in = b.term.else_target in loop
        if t_in == e_in:
            raise StructureError(fn.name, name, "cannot split loop body from exit")
        if not t_in:
            raise StructureError(fn.name, name, "loop body must sit on the taken branch edge")
        header = instrs(b.body)
        body_entry, body_entry_args = b.term.then_target, read(b.term.then_args)
        exit_name, exit_args = b.term.else_target, read(b.term.else_args)
        if len(preds[exit_name]) != 1:
            raise StructureError(fn.name, exit_name, "loop exit must have one predecessor")
        body_nodes, back_args = recover(body_entry, body_entry_args, True, name)
        # rotate: every header result becomes a carried value, computed
        # once before the loop and once at the end of each trip
        pre, init = rotated(header, b.params, init)
        post, back_args = rotated(header, b.params, back_args)
        node = SWhile(
            carried=b.params + [(ins.result, types[ins.result]) for ins in header],
            init=init,
            header=[],
            cond=rename.get(b.term.cond, b.term.cond),
            body_region=body_nodes + post,
            body_args=back_args,
            exits=list(blocks[exit_name].params),
            exit_args=exit_args,
        )
        return pre + [node], exit_name

    def recover(
        entry_name: str,
        entry_args: tuple[int, ...],
        bind_entry: bool,
        stop: str | None,
    ) -> tuple[list, tuple[int, ...]]:
        nodes: list = []
        cur, args, bind = entry_name, entry_args, bind_entry
        while True:
            if cur == stop:
                return nodes, args
            b = blocks[cur]
            if cur in headers:
                loop_nodes, exit_name = make_while(cur, args)
                nodes.extend(loop_nodes)
                cur, args, bind = exit_name, (), False
                continue
            if bind:
                if preds[cur] and len(preds[cur]) != 1:
                    raise StructureError(fn.name, cur, "unstructured merge point")
                for (pv, _), a in zip(b.params, args):
                    rename[pv] = a
            nodes.extend(SInstr(ins) for ins in instrs(b.body))
            t = b.term
            if isinstance(t, Ret):
                if stop is not None:
                    raise StructureError(fn.name, cur, "ret inside a structured region")
                return nodes, read(t.values)
            if isinstance(t, Jmp):
                if headers.get(t.target) == cur and t.target != stop:
                    # a back edge met outside its loop's body: a branch
                    # in the body reconverges only after the loop
                    raise StructureError(fn.name, t.target, "loop exits from inside its body")
                cur, args, bind = t.target, read(t.args), True
                continue
            assert isinstance(t, Br)
            join = pdom.idom.get(cur)
            if join is None:
                raise StructureError(fn.name, cur, "branch arms never reconverge")
            if len(preds[join]) != 2:
                raise StructureError(fn.name, join, "join must have two predecessors")
            then_nodes, then_args = recover(t.then_target, read(t.then_args), True, join)
            else_nodes, else_args = recover(t.else_target, read(t.else_args), True, join)
            nodes.append(SIf(rename.get(t.cond, t.cond), then_nodes, then_args,
                             else_nodes, else_args, list(blocks[join].params)))
            cur, args, bind = join, (), False

    try:
        region, ret_vals = recover(fn.blocks[0].name, (), False, None)
    finally:
        del recover, make_while  # they call each other: leave no cycle behind
    return SFunc(
        name=fn.name,
        params=list(fn.params),
        results=fn.results,
        region=region,
        ret_vals=ret_vals,
        types=types,
        vnames=vnames,
        next_id=next(ids),
    )


def verify(module: Module) -> list[Diagnostic]:
    """The first well-formedness failure of each function; empty when clean.

    Each function is checked afresh, and a clean one keeps its tree in
    ``fn.tier.checked``: ``structurize`` returns it to the transforms
    (``augment``, ``vectorize``, ``lower``) while it holds (``ir.Tier``)."""
    diags: list[Diagnostic] = []
    for fn in module.functions.values():
        fn.tier.checked = None
        try:
            sf = structurize(fn, module)
        except StructureError as e:
            diags.append(e.diagnostic)
        else:
            # the functions its ops name by fn, which typed the tree
            names = {r.name for b in fn.blocks for ins in b.body
                     if isinstance(r := ins.attrs.get("fn"), FnRef) and r.name in module.functions}
            fn.tier.checked = (sf, tuple((n, weakref.ref(module.functions[n])) for n in names))
    return diags


def drop_dead(sf: SFunc) -> SFunc:
    """Remove, in place, each instruction whose result nothing reads and
    whose op cannot fault (``OpDef.faults``), so no error moves.  Every
    binding stays, and so do the values passed to it; one backward sweep
    suffices, as a region's values are read only later in it.  A
    ``tape_top`` stays while its trace is read on, so that the pop stays
    whole: differentiating the code again types the popped entry by it."""
    sf.region = _sweep(sf.region, set(sf.ret_vals))
    return sf


def _sweep(nodes: list, live: set[int]) -> list:
    """``drop_dead`` on a region; ``live`` holds the values read after it."""
    kept = []
    for node in reversed(nodes):
        if isinstance(node, SInstr):
            ins = node.ins
            if ins.result not in live and not OPS[ins.op].faults and not (
                    ins.op == "tape_top" and ins.operands[0] in live):
                continue
            live.update(ins.operands)
        else:
            live.update(reads(node))
            if isinstance(node, SIf):
                node.then_region = _sweep(node.then_region, live)
                node.else_region = _sweep(node.else_region, live)
            else:
                node.body_region = _sweep(node.body_region, live)
        kept.append(node)
    return kept[::-1]


def simplify(sf: SFunc) -> SFunc:
    """Forward trace round trips and compute each repeated instruction
    once, in place, for ``drop_dead`` to remove the pushes left unread.

    A ``tape_top`` of ``tape_push(t, v)`` becomes ``v`` if ``v`` has the
    top's type, its ``tape_rest`` becomes ``t``, and a ``tape_expect_empty``
    of a ``tape_new`` becomes ``const true``.  An instruction with the op,
    operands and attribute ``repr`` (0.0 is not -0.0) of one before it in
    its region or an outer one becomes that one, unless it is a trace op
    or ``call``; a faulting op may merge, as the first copy faults first."""
    sub: dict[int, int] = {}
    sf.region = _number(sf.region, {}, sub, {}, sf.types)
    sf.ret_vals = _read(sub, sf.ret_vals)
    return sf


def _read(sub: dict[int, int], vids: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sub.get(v, v) for v in vids)


def _number(nodes: list, table: dict, sub: dict[int, int], traces: dict, types) -> list:
    """``simplify`` on a region: ``table`` maps the instructions in scope
    to their results, ``sub`` each removed result to its replacement, and
    ``traces`` each ``tape_push`` or ``tape_new`` result to its operands."""
    kept, added = [], []
    for node in nodes:
        if isinstance(node, SIf):
            node.then_region = _number(node.then_region, table, sub, traces, types)
            node.else_region = _number(node.else_region, table, sub, traces, types)
            node.then_args, node.else_args = _read(sub, node.then_args), _read(sub, node.else_args)
            node.cond = sub.get(node.cond, node.cond)
        elif isinstance(node, SWhile):
            node.body_region = _number(node.body_region, table, sub, traces, types)
            node.init, node.body_args, node.exit_args = (
                _read(sub, node.init), _read(sub, node.body_args), _read(sub, node.exit_args))
        else:
            ins, ops = node.ins, _read(sub, node.ins.operands)
            pushed = traces.get(ops[0]) if ops else None
            if pushed and (ins.op == "tape_rest" or ins.op == "tape_top"
                           and types[pushed[1]] == ins.attrs["ty"]):
                sub[ins.result] = pushed[ins.op == "tape_top"]
                continue
            if ins.op == "tape_expect_empty" and pushed == ():
                ins = Instruction(ins.result, "const", (), {"ty": BOOL, "value": True})
            elif ops != ins.operands:
                ins = Instruction(ins.result, ins.op, ops, ins.attrs)
            if ins.op in ("tape_push", "tape_new") and types[ins.result].kind == "tape":
                traces[ins.result] = ops  # () for the empty trace
            elif ins.op != "call" and not OPS[ins.op].trace:
                key = (ins.op, ins.operands, repr(sorted(ins.attrs.items())))
                if key in table:
                    sub[ins.result] = table[key]
                    continue
                table[key] = ins.result
                added.append(key)
            node.ins = ins
        kept.append(node)
    for key in added:
        del table[key]
    return kept


# --------------------------------------------------------- emission


def flatten(sf: SFunc) -> Function:
    """Lower a structured tree to blocks in canonical shape."""
    fn = Function(sf.name, sf.results)
    fn.vnames = dict(sf.vnames)
    fn.next_id = sf.next_id
    fn.blocks.append(Block("entry", list(sf.params)))
    last = _emit_region(fn, sf.region, fn.blocks[0])
    last.term = Ret(sf.ret_vals)
    return fn


def _new_block(fn: Function, kind: str, params: list | tuple = ()) -> Block:
    """A new block of ``fn``, numbered by the blocks after the entry."""
    b = Block(f"{kind}{len(fn.blocks) - 1}", list(params))
    fn.blocks.append(b)
    return b


def _emit_region(fn: Function, nodes: list, cur: Block) -> Block:
    """Emit a region into ``fn`` from ``cur``; returns its open last block."""
    for node in nodes:
        if isinstance(node, SInstr):
            cur.body.append(node.ins)
        elif isinstance(node, SIf):
            then_b = _new_block(fn, "then")
            else_b = _new_block(fn, "else")
            join_b = _new_block(fn, "join", node.merged)
            cur.term = Br(node.cond, then_b.name, (), else_b.name, ())
            _emit_region(fn, node.then_region, then_b).term = Jmp(join_b.name, node.then_args)
            _emit_region(fn, node.else_region, else_b).term = Jmp(join_b.name, node.else_args)
            cur = join_b
        else:
            head_b = _new_block(fn, "head", node.carried)
            body_b = _new_block(fn, "body")
            exit_b = _new_block(fn, "exit", node.exits)
            cur.term = Jmp(head_b.name, node.init)
            head_b.body.extend(node.header)
            head_b.term = Br(node.cond, body_b.name, (), exit_b.name, node.exit_args)
            _emit_region(fn, node.body_region, body_b).term = Jmp(head_b.name, node.body_args)
            cur = exit_b
    return cur


# ---------------------------------------------------------- building


def fresh_name(used: dict[str, int], name: str) -> str:
    """``name``, else ``name_k`` for the smallest free k >= 1.  ``used`` maps
    each taken name to the next suffix to try, every lower one taken."""
    k = used.get(name)
    if k is not None:
        base = name
        while (name := sys.intern(f"{base}_{k}")) in used:
            k += 1
        used[base] = k + 1
    used[name] = 1
    return name


class SEmitter:
    """Factory for building structured functions with typed values.

    Regions are managed as an explicit stack so transform code reads
    top to bottom: push a region, emit into it, pop it into an SIf or
    SWhile node.
    """

    def __init__(self, name: str, results: tuple[Type, ...], module: Module | None = None):
        self.name = name
        self.results = results
        self.module = module
        self.types: dict[int, Type] = {}
        self.vnames: dict[int, str] = {}
        self.next_id = 0
        self.params: list[tuple[int, Type]] = []
        self.stack: list[list] = [[]]
        self._used_names: dict[str, int] = {}

    def fresh(self, name: str, ty: Type) -> int:
        """A new value called ``name``, else ``name_k`` for the smallest free k >= 1."""
        vid = self.next_id
        self.next_id += 1
        self.vnames[vid] = fresh_name(self._used_names, name)
        self.types[vid] = ty
        return vid

    def param(self, name: str, ty: Type) -> int:
        vid = self.fresh(name, ty)
        self.params.append((vid, ty))
        return vid

    def clone(self, ins: Instruction, valmap: dict[int, int], src: SFunc) -> Instruction:
        """A copy of ``src``'s instruction on a fresh result, with operands
        mapped through ``valmap``, which gains the result."""
        vid = self.fresh(src.vnames.get(ins.result, "t"), src.types[ins.result])
        valmap[ins.result] = vid
        return Instruction(vid, ins.op, tuple(valmap[o] for o in ins.operands), dict(ins.attrs))

    # region management

    def push_region(self):
        self.stack.append([])

    def pop_region(self) -> list:
        return self.stack.pop()

    def append(self, node):
        self.stack[-1].append(node)

    # instruction emission

    def emit(
        self,
        op: str,
        operands: tuple[int, ...] = (),
        attrs: dict | None = None,
        name: str = "t",
    ) -> int:
        attrs = attrs or {}
        opnd_types = tuple(self.types[o] for o in operands)
        ty = result_type(op, opnd_types, attrs, self.module)
        vid = self.fresh(name, ty)
        self.append(SInstr(Instruction(vid, op, operands, attrs)))
        return vid

    def const_f64(self, x: float, name: str = "c") -> int:
        return self.emit("const", (), {"ty": F64, "value": float(x)}, name)

    def const_i64(self, x: int, name: str = "c") -> int:
        return self.emit("const", (), {"ty": I64, "value": int(x)}, name)

    def const_bool(self, x: bool, name: str = "c") -> int:
        return self.emit("const", (), {"ty": BOOL, "value": bool(x)}, name)

    def const_tensor(self, shape: tuple[int, ...], values, name: str = "c") -> int:
        vals = tuple(float(v) for v in values)
        return self.emit("const", (), {"ty": tensor_type(*shape), "value": vals}, name)

    def zeros_like(self, ty: Type, name: str = "z") -> int:
        if ty.kind == "bool":
            return self.const_bool(False, name)
        if ty.kind == "i64":
            return self.const_i64(0, name)
        if ty.kind == "f64":
            return self.const_f64(0.0, name)
        if ty.is_tensor:
            return self.const_tensor(ty.shape, (0.0,) * prod(ty.shape), name)
        if ty.kind == "tape":
            return self.emit("tape_new", (), None, name)
        raise OpTypeError(f"no zero value for type {ty}")

    def finish(self, ret_vals: tuple[int, ...]) -> SFunc:
        assert len(self.stack) == 1, "unbalanced regions"
        return SFunc(
            name=self.name,
            params=self.params,
            results=self.results,
            region=self.stack[0],
            ret_vals=ret_vals,
            types=self.types,
            vnames=self.vnames,
            next_id=self.next_id,
        )


# ----------------------------------------------------------- copying


class Copier:
    """Copies nodes of ``src``'s tree into ``em``'s open region.

    ``valmap`` maps src values to ``em`` values and gains every copied
    definition.  ``region`` copies each ``SIf`` and ``SWhile`` itself,
    threading a *state*: a tuple of extra values, one per (name, type)
    pair of ``state`` (or none at all), that each if merges from its arms
    and each loop carries, handing the state of its last test to its
    exit.  It copies trees ``structurize`` returns, whose loops have no
    header instructions.  Subclasses change the copy through hooks, each a
    plain copy here: ``instr`` copies an instruction, ``edge`` maps a value
    passed to a binding, ``bind_type`` types a merged, carried or exit
    binding, and ``arm_end`` and ``back_edge`` may emit code that updates
    the state.
    """

    state: tuple[tuple[str, Type], ...] = ()

    def __init__(self, em: SEmitter, src: SFunc, valmap: dict[int, int]):
        self.em, self.src, self.valmap = em, src, valmap

    # hooks

    def instr(self, ins: Instruction, state: tuple) -> tuple:
        self.em.append(SInstr(self.em.clone(ins, self.valmap, self.src)))
        return state

    def edge(self, dst: int, src: int) -> int:
        return self.valmap[src]

    def bind_type(self, v: int, ty: Type) -> Type:
        return ty

    def arm_end(self, taken: bool, state: tuple) -> tuple:
        return state

    def back_edge(self, state: tuple) -> tuple:
        return state

    # the walk

    def bind(self, pairs: list[tuple[int, Type]]) -> list[tuple[int, Type]]:
        """Give each source (value, type) pair a fresh value named like
        it and typed by ``bind_type``; record it in ``valmap``."""
        out = []
        for v, ty in pairs:
            ty = self.bind_type(v, ty)
            self.valmap[v] = nv = self.em.fresh(self.src.vnames.get(v, "t"), ty)
            out.append((nv, ty))
        return out

    def _fresh_state(self, state: tuple) -> list[tuple[int, Type]]:
        assert len(state) in (0, len(self.state)), "a state is whole or empty"
        return [(self.em.fresh(name, ty), ty) for name, ty in (self.state if state else ())]

    def region(self, nodes: list, state: tuple = ()) -> tuple:
        instr = self.instr
        for node in nodes:
            if isinstance(node, SInstr):
                state = instr(node.ins, state)
            elif isinstance(node, SIf):
                state = self.branch(node, state)
            else:
                state = self.loop(node, state)
        return state

    def branch(self, node: SIf, state: tuple) -> tuple:
        em = self.em
        arms = []
        for region, args, taken in ((node.then_region, node.then_args, True),
                                    (node.else_region, node.else_args, False)):
            em.push_region()
            out = self.arm_end(taken, self.region(region, state))
            out = tuple(self.edge(mv, a) for (mv, _), a in zip(node.merged, args)) + out
            arms += [em.pop_region(), out]
        merged = self.bind(node.merged)
        out = self._fresh_state(state)
        em.append(SIf(self.valmap[node.cond], *arms, merged + out))
        return tuple(v for v, _ in out)

    def loop(self, node: SWhile, state: tuple) -> tuple:
        assert not node.header, "structurize rotates loop headers away"
        em = self.em
        init = tuple(self.edge(cv, a) for (cv, _), a in zip(node.carried, node.init)) + state
        carried = self.bind(node.carried)
        params = self._fresh_state(state)
        head = tuple(v for v, _ in params)
        em.push_region()
        state = self.back_edge(self.region(node.body_region, head))
        back = tuple(self.edge(cv, a) for (cv, _), a in zip(node.carried, node.body_args)) + state
        body = em.pop_region()
        exit_args = tuple(self.edge(ev, a) for (ev, _), a in zip(node.exits, node.exit_args))
        exits = self.bind(node.exits)
        out = self._fresh_state(state)
        em.append(SWhile(carried + params, init, [], self.valmap[node.cond], body, back,
                         exits + out, exit_args + head))
        return tuple(v for v, _ in out)


def splice_function(em: SEmitter, src: SFunc, args: tuple[int, ...]) -> tuple[int, ...]:
    """Inline a whole structured function; returns its mapped ret values."""
    if len(args) != len(src.params):
        raise ValueError(f"@{src.name} takes {len(src.params)} args, got {len(args)}")
    copier = Copier(em, src, {pv: a for (pv, _), a in zip(src.params, args)})
    copier.region(src.region)
    return tuple(copier.valmap[v] for v in src.ret_vals)
