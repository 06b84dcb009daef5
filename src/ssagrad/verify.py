"""Static checks: SSA form, dominance, types, terminators, structure.

``verify`` never raises on bad input; it returns diagnostics. A clean
module returns an empty list. Checks run in phases per function and a
function's later phases are skipped once it has a diagnostic, so one
corruption reports once instead of cascading.

The block-graph checks (terminators, jump targets, reachability, entry
predecessors), the typing walk and the structured-form requirements
belong to ``structure``: this module calls them and reports their
``StructureError`` as a diagnostic.  It owns only what nothing else
checks: single definition, definitions dominating uses, edge and ret
arity and types, and the type of a br condition.
"""

from __future__ import annotations

from .ir import Br, Diagnostic, Function, Jmp, Module, Ret, BOOL
from .structure import StructureError, analyze_cfg, compute_types, structurize


def verify(module: Module) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for fn in module.functions.values():
        diags.extend(_verify_function(fn, module))
    return diags


def _verify_function(fn: Function, module: Module) -> list[Diagnostic]:
    try:
        dom, _ = analyze_cfg(fn)
    except StructureError as e:
        return [e.diagnostic]
    blocks = {b.name: b for b in fn.blocks}
    diags: list[Diagnostic] = []

    def err(block: str, msg: str):
        diags.append(Diagnostic(fn.name, block, msg))

    # SSA: single definition per value, definitions dominate uses
    defsite: dict[int, tuple[str, int]] = {}
    for b in fn.blocks:
        for vid, _ in b.params:
            if vid in defsite:
                err(b.name, f"%{fn.value_name(vid)} defined more than once")
            defsite[vid] = (b.name, -1)
        for i, ins in enumerate(b.body):
            if ins.result in defsite:
                err(b.name, f"%{fn.value_name(ins.result)} defined more than once")
            defsite[ins.result] = (b.name, i)
    if diags:
        return diags

    def check_use(vid: int, block: str, index: int):
        site = defsite.get(vid)
        if site is None:
            err(block, f"use of undefined value %{fn.value_name(vid)}")
            return
        db, di = site
        if db == block:
            if di >= index:
                err(block, f"%{fn.value_name(vid)} used before its definition")
        elif db not in dom[block]:
            err(block, f"%{fn.value_name(vid)} does not dominate its use")

    for b in fn.blocks:
        for i, ins in enumerate(b.body):
            for o in ins.operands:
                check_use(o, b.name, i)
        end = len(b.body)
        for o in _term_uses(b):
            check_use(o, b.name, end)
    if diags:
        return diags

    try:
        types = compute_types(fn, module)
    except StructureError as e:
        return [e.diagnostic]

    def check_edge(block: str, target: str, args: tuple[int, ...]):
        params = blocks[target].params
        if len(args) != len(params):
            err(block, f"edge to ^{target} passes {len(args)} args for {len(params)} params")
            return
        for a, (pv, pty) in zip(args, params):
            aty = types[a]
            if aty != pty:
                err(
                    block,
                    f"edge to ^{target}: %{fn.value_name(a)} has type {aty}, "
                    f"param %{fn.value_name(pv)} wants {pty}",
                )

    for b in fn.blocks:
        t = b.term
        if isinstance(t, Ret):
            if len(t.values) != len(fn.results):
                err(b.name, f"ret carries {len(t.values)} values for {len(fn.results)} results")
            else:
                for v, rty in zip(t.values, fn.results):
                    vty = types[v]
                    if vty != rty:
                        err(b.name, f"ret value %{fn.value_name(v)} has type {vty}, want {rty}")
        elif isinstance(t, Jmp):
            check_edge(b.name, t.target, t.args)
        elif isinstance(t, Br):
            cty = types[t.cond]
            if cty != BOOL:
                err(b.name, f"br condition %{fn.value_name(t.cond)} has type {cty}, want bool")
            check_edge(b.name, t.then_target, t.then_args)
            check_edge(b.name, t.else_target, t.else_args)
    if diags:
        return diags

    try:
        structurize(fn, module)
    except StructureError as e:
        diags.append(e.diagnostic)
    return diags


def _term_uses(b) -> tuple[int, ...]:
    t = b.term
    if isinstance(t, Ret):
        return t.values
    if isinstance(t, Jmp):
        return t.args
    if isinstance(t, Br):
        return (t.cond,) + t.then_args + t.else_args
    return ()
