"""Whole-function batching: run B independent inputs in one pass.

``vectorize`` rewrites a function so every parameter carries a leading
lane axis and every op works on all lanes at once.  Arithmetic stays
bit-identical per lane: elementwise kernels apply the same scalar
operations, reductions keep their fold order, and matmul takes rank-3,
lane-leading operands with the same ascending-k accumulation.

Control flow is where lanes disagree, and lane dependence flows
through it: an if or loop on a lane-dependent condition binds
lane-dependent values, even a loop exit bound to a constant, since
lanes leave after different trips.  Such a branch runs both sides and
merges with masked selects; such a loop keeps an active-lane mask and
iterates until every lane is done, freezing the carried values of lanes
that already left.  Traces survive both tricks
because a batched trace is one index per lane into a table of nodes that
never change: a select keeps the old node of a lane that did not take a
branch, and the nodes the other arm pushed stay unreachable from it.

Partial ops need care under speculation: a masked-off lane may hold
values that were never meant to reach a divide or a log, so the
operands ``ops.OPS`` declares partial (divisors and log arguments) are
routed through selects that substitute 1.0 in dead lanes.

Each op's batched form is an entry of ``_CASES``: elementwise ops share
one, and an op that cannot be batched has its reason in ``_BATCH_ERRORS``.
"""

from __future__ import annotations

from math import prod

from . import tensor as T
from .interp import DEFAULT_STEP_LIMIT
from .ir import Function, Instruction, Module, Type, tapes_type, tensor_type
from .ops import OPS
from .structure import (Copier, SEmitter, SFunc, SIf, SInstr, SWhile, closure, defs, flatten, flows,
                        walk)
from .reverse_ad import augment, inline_sfunc, run_aug_pb
from .tensor import DenseTensor


class BatchError(Exception):
    pass


def batched_type(ty: Type, lanes: int) -> Type:
    """The lane-carrying version of a scalar program type.

    Counters and flags ride along as rows of floats so that lane-wise
    arithmetic and masking treat every value the same way.
    """
    if ty.kind in ("f64", "i64", "bool"):
        return tensor_type(lanes)
    if ty.kind == "tensor":
        return tensor_type(lanes, *ty.shape)
    if ty.kind == "tape":
        return tapes_type(lanes)
    raise BatchError(f"cannot batch a value of type {ty}")


def _lane_shape(ty: Type) -> tuple[int, ...]:
    return ty.shape if ty.kind == "tensor" else ()


# ----------------------------------------------------- lane analysis


def _scan_batched(sf: SFunc) -> set[int]:
    """Which values become lane-dependent once all parameters do.

    Lane dependence follows data flow (``structure.flows``), and runs
    from an if's or loop's condition to each of its bindings.  Constants
    and anything computed purely from them stay uniform and are emitted
    once, shared by every lane.  Traces always batch: the flags they
    replay are lane-dependent as soon as any branch is.
    """
    edges = []
    for node in walk(sf.region):
        edges += flows(node)
        if not isinstance(node, SInstr):
            edges += [(node.cond, v) for v in defs(node)]
    seeds = [pv for pv, _ in sf.params]
    seeds += [v for v, ty in sf.types.items() if ty.kind in ("tape", "tapes")]
    return closure(seeds, edges)


# --------------------------------------------------------- rewriting


class _Vectorizer(Copier):
    """A copy of the source in which lane-dependent values carry a
    leading lane axis; control flow on a uniform condition is copied as
    is, and on a lane-dependent one becomes masked code."""

    def __init__(self, module: Module, sf: SFunc, lanes: int, name: str):
        self.B = lanes
        self.batched = _scan_batched(sf)
        out = tuple(batched_type(t, lanes) for t in sf.results)
        super().__init__(SEmitter(name, out, module), sf, {})
        # (B,) row of ones marking the lanes the current code runs for;
        # None at top level, where every lane is live
        self.mask: int | None = None
        self._ones: int | None = None

    # value plumbing

    def val(self, v: int) -> int:
        return self.valmap[v]

    def is_b(self, v: int) -> bool:
        return v in self.batched

    def name_of(self, v: int) -> str:
        return self.src.vnames.get(v, "t")

    def lane_of(self, v: int) -> tuple[int, ...]:
        return _lane_shape(self.src.types[v])

    def ones_rows(self) -> int:
        if self._ones is None:
            one = self.em.const_f64(1.0, "one")
            self._ones = self.em.emit("bcast", (one,), {"shape": (self.B,)}, "live")
        return self._ones

    def rows_like(self, fill: float, lane: tuple[int, ...], name: str) -> int:
        c = self.em.const_f64(fill, name)
        return self.em.emit("bcast", (c,), {"shape": (self.B, *lane)}, name)

    def pad_mask(self, mask: int, lane: tuple[int, ...]) -> int:
        if not lane:
            return mask
        shape = (self.B, *(1,) * len(lane))
        return self.em.emit("reshape", (mask,), {"shape": shape}, "m")

    def pad_lane(self, vid: int, lane: tuple[int, ...], rank: int) -> int:
        """Left-pad a batched value's lane with 1s so trailing axes align."""
        if len(lane) >= rank:
            return vid
        shape = (self.B, *(1,) * (rank - len(lane)), *lane)
        return self.em.emit("reshape", (vid,), {"shape": shape}, "t")

    def materialize(self, v: int) -> int:
        """The full lane-carrying form of a value, copying uniforms out."""
        if self.is_b(v):
            return self.val(v)
        ty = self.src.types[v]
        ev = self.val(v)
        nm = self.name_of(v)
        if ty.kind == "f64":
            return self.em.emit("bcast", (ev,), {"shape": (self.B,)}, nm)
        if ty.kind == "tensor":
            return self.em.emit("bcast", (ev,), {"shape": (self.B, *ty.shape)}, nm)
        if ty.kind == "i64":
            f = self.em.emit("itof", (ev,), None, nm)
            return self.em.emit("bcast", (f,), {"shape": (self.B,)}, nm)
        # a bool: traces are never uniform (``_scan_batched``)
        return self.em.emit("select", (ev, self.ones_rows(), self.rows_like(0.0, (), nm)), None, nm)

    def edge(self, dst: int, src: int) -> int:
        """The value ``src`` passes along an edge to the binding ``dst``:
        lane-carrying when ``dst`` carries lanes."""
        return self.materialize(src) if self.is_b(dst) else self.val(src)

    def bind_type(self, v: int, ty: Type) -> Type:
        """The type of the binding that stands for ``v`` in batched code."""
        return batched_type(ty, self.B) if self.is_b(v) else ty

    # elementwise ops share one adaptation scheme: batched operands get
    # their lane axes aligned, uniform operands ride on broadcasting

    def common_lane(self, operands: tuple[int, ...]) -> tuple[int, ...]:
        s: tuple[int, ...] = ()
        for o in operands:
            s = T.broadcast_shapes(s, self.lane_of(o))
        return s

    def elem(self, o: int, lane: tuple[int, ...]) -> int:
        if not self.is_b(o):
            ev = self.val(o)
            if self.src.types[o].kind == "i64":
                # uniform counters join lane arithmetic as plain floats
                ev = self.em.emit("itof", (ev,), None, self.name_of(o))
            return ev
        return self.pad_lane(self.val(o), self.lane_of(o), len(lane))

    def guard(self, src: int, vid: int) -> int:
        """Substitute 1.0 in dead lanes so partial ops cannot fault."""
        if self.mask is None:
            return vid
        if self.is_b(src):
            lane = self.lane_of(src)
            m = self.pad_mask(self.mask, lane)
            return self.em.emit("select", (m, vid, self.rows_like(1.0, lane, "safe")), None, "safe")
        total = self.em.emit("reduce_sum", (self.mask,), {"axis": "all"}, "nlive")
        alive = self.em.emit("gt", (total, self.em.const_f64(0.0, "z")), None, "alive")
        ty = self.src.types[src]
        if ty.kind == "tensor":
            one = self.em.const_tensor(ty.shape, (1.0,) * prod(ty.shape), "safe")
        else:
            one = self.em.const_f64(1.0, "one")
        return self.em.emit("select", (alive, vid, one), None, "safe")

    # ------------------------------------------------------- op cases

    def instr(self, ins: Instruction, state: tuple = ()) -> tuple:
        case = _CASES.get(ins.op) if self.is_b(ins.result) else _Vectorizer.lanewise
        if case is None:
            raise BatchError(_BATCH_ERRORS[ins.op])
        self.valmap[ins.result] = case(self, ins, self.name_of(ins.result))
        return state

    def lanewise(self, ins: Instruction, nm: str) -> int:
        """An elementwise op, or any op of a uniform island, which is
        cloned as is.  Operands a dead lane must not reach get a live-lane
        guard, as partial ops may be speculated under a mask."""
        lane = self.common_lane(ins.operands) if self.is_b(ins.result) else None
        partial = OPS[ins.op].partial
        opnds = []
        for i, o in enumerate(ins.operands):
            ev = self.val(o) if lane is None else self.elem(o, lane)
            opnds.append(self.guard(o, ev) if i in partial else ev)
        return self.em.emit(ins.op, tuple(opnds), dict(ins.attrs), nm)

    def same_op(self, ins: Instruction, nm: str) -> int:
        """Lanes lead and traces are per lane, so the op is unchanged."""
        return self.em.emit(ins.op, tuple(self.val(o) for o in ins.operands), None, nm)

    def select(self, ins: Instruction, nm: str) -> int:
        c, a, b = ins.operands
        if self.is_b(c) or self.src.types[a].kind == "tape":
            return self.lanewise(ins, nm)
        # uniform condition over lane-dependent arms; a plain select
        # wants both arms at exactly the same type
        lane = self.common_lane((a, b))
        target = (self.B, *lane)

        def lift(v: int) -> int:
            ev = self.materialize(v)
            s = self.lane_of(v)
            if s != lane:
                ev = self.pad_lane(ev, s, len(lane))
                ev = self.em.emit("bcast", (ev,), {"shape": target}, nm)
            return ev

        return self.em.emit("select", (self.val(c), lift(a), lift(b)), None, nm)

    def itof(self, ins: Instruction, nm: str) -> int:
        # batched counters already live as rows of floats
        return self.val(ins.operands[0])

    def matmul(self, ins: Instruction, nm: str) -> int:
        a, b = ins.operands
        if len(self.src.types[a].shape) == 3:
            raise BatchError("a rank-3 matmul is already lane-shaped; "
                             "batching it again needs rank 4")
        av = self.val(a) if self.is_b(a) else self.em.emit(
            "bcast", (self.val(a),), {"shape": (self.B, *self.src.types[a].shape)}, nm)
        bv = self.val(b) if self.is_b(b) else self.em.emit(
            "bcast", (self.val(b),), {"shape": (self.B, *self.src.types[b].shape)}, nm)
        return self.em.emit("matmul", (av, bv), None, nm)

    def reshape(self, ins: Instruction, nm: str) -> int:
        return self.em.emit("reshape", (self.val(ins.operands[0]),),
                            {"shape": (self.B, *ins.attrs["shape"])}, nm)

    def reduce_sum(self, ins: Instruction, nm: str) -> int:
        (o,) = ins.operands
        axis = ins.attrs.get("axis", "all")
        v = self.val(o)
        if axis != "all":
            return self.em.emit("reduce_sum", (v,), {"axis": int(axis) + 1}, nm)
        # a per-lane full fold: the leading lane axis stays, and each lane
        # folds its leading axis repeatedly, as the scalar program does
        for _ in self.lane_of(o):
            v = self.em.emit("reduce_sum", (v,), {"axis": 1}, nm)
        return v

    def bcast(self, ins: Instruction, nm: str) -> int:
        (o,) = ins.operands
        shape = ins.attrs["shape"]
        v = self.pad_lane(self.val(o), self.lane_of(o), len(shape))
        return self.em.emit("bcast", (v,), {"shape": (self.B, *shape)}, nm)

    def stack(self, ins: Instruction, nm: str) -> int:
        vals = tuple(self.materialize(o) for o in ins.operands)
        return self.em.emit("stack", vals, {"axis": ins.attrs.get("axis", 0) + 1}, nm)

    def unstack(self, ins: Instruction, nm: str) -> int:
        return self.em.emit(
            "unstack", (self.val(ins.operands[0]),),
            {"index": ins.attrs["index"], "axis": ins.attrs.get("axis", 0) + 1}, nm)

    def fused_pack(self, ins: Instruction, nm: str) -> int:
        packed = self.lanewise(ins, nm)
        # the pack axis comes out first; lanes must lead for the trace
        rows = [self.em.emit("unstack", (packed,), {"index": r, "axis": 0}, nm)
                for r in range(1 + len(ins.operands))]
        return self.em.emit("stack", tuple(rows), {"axis": 1}, nm)

    def tape_new(self, ins: Instruction, nm: str) -> int:
        t = self.em.emit("tape_new", (), None, nm)
        return self.em.emit("tape_spread", (t,), {"lanes": self.B}, nm)

    def tape_push(self, ins: Instruction, nm: str) -> int:
        t, v = ins.operands
        attrs = {"per_lane": True} if self.is_b(v) else None
        return self.em.emit("tape_push", (self.val(t), self.val(v)), attrs, nm)

    def tape_top(self, ins: Instruction, nm: str) -> int:
        ty = batched_type(ins.attrs["ty"], self.B)
        return self.em.emit(
            "tape_top", (self.val(ins.operands[0]),), {"ty": ty, "per_lane": True}, nm)

    # --------------------------------------------------- control flow

    def branch(self, node: SIf, state: tuple) -> tuple:
        if not self.is_b(node.cond):
            # all lanes agree: keep a real branch
            return super().branch(node, state)

        # lanes disagree: run both sides inline and merge with selects
        em, m = self.em, self.val(node.cond)
        outer = self.mask
        enc = outer if outer is not None else self.ones_rows()
        inv = em.emit("sub", (self.ones_rows(), m), None, "notm")

        self.mask = em.emit("mul", (enc, m), None, "tm")
        self.region(node.then_region)
        then_vals = [self.edge(mv, a) for (mv, _), a in zip(node.merged, node.then_args)]

        self.mask = em.emit("mul", (enc, inv), None, "em")
        self.region(node.else_region)
        else_vals = [self.edge(mv, a) for (mv, _), a in zip(node.merged, node.else_args)]

        self.mask = outer
        for (mv, mty), tv, ev in zip(node.merged, then_vals, else_vals):
            self.valmap[mv] = em.emit(
                "select", (self.pad_mask(m, _lane_shape(mty)), tv, ev), None, self.name_of(mv))
        return state

    def loop(self, node: SWhile, state: tuple) -> tuple:
        if not self.is_b(node.cond):
            # the same trip count in every lane: the loop shape survives
            return super().loop(node, state)
        em = self.em
        outer = self.mask
        enc = outer if outer is not None else self.ones_rows()

        # a lane-dependent condition makes every carried value lane-dependent
        active = em.fresh("active", tensor_type(self.B))
        inits = [enc, *(self.materialize(iv) for iv in node.init)]
        carried = [(active, tensor_type(self.B)), *self.bind(node.carried)]

        em.push_region()
        act = em.emit("mul", (active, self.val(node.cond)), None, "act")
        total = em.emit("reduce_sum", (act,), {"axis": "all"}, "nlive")
        cond = em.emit("gt", (total, em.const_f64(0.0, "z")), None, "more")
        header_ins = [n.ins for n in em.pop_region()]

        em.push_region()
        self.mask = act
        self.region(node.body_region)
        back = [act]
        for (cv, cty), ba in zip(node.carried, node.body_args):
            p = self.val(cv)
            nv = self.materialize(ba)
            back.append(em.emit(
                "select", (self.pad_mask(act, _lane_shape(cty)), nv, p), None, self.name_of(cv)))
        body_nodes = em.pop_region()
        self.mask = outer

        exit_args = tuple(self.materialize(ea) for ea in node.exit_args)
        exits = self.bind(node.exits)
        em.append(SWhile(carried, tuple(inits), header_ins, cond, body_nodes,
                         tuple(back), exits, exit_args))
        return state

    # ----------------------------------------------------------- entry

    def build(self) -> SFunc:
        em, sf = self.em, self.src
        for pv, ty in sf.params:
            self.valmap[pv] = em.param(self.name_of(pv), batched_type(ty, self.B))
        # the all-live row is shared across regions, so pin it at the top
        self.ones_rows()
        self.region(sf.region)
        rets = tuple(self.materialize(rv) for rv in sf.ret_vals)
        return em.finish(rets)


# each op's batched form when its result is lane-dependent: elementwise
# ops map lane-wise (a const never depends on a lane, so it is cloned),
# the rest have a case of their name or a reason they cannot batch
_CASES = {op: _Vectorizer.lanewise for op, d in OPS.items() if d.elementwise or op == "const"}
_CASES.update({op: getattr(_Vectorizer, op) for op in (
    "select", "itof", "matmul", "reshape", "reduce_sum", "bcast", "stack", "unstack",
    "fused_pack", "tape_new", "tape_push", "tape_top")})
_CASES.update(dict.fromkeys(("transpose", "tape_rest", "tape_expect_empty"), _Vectorizer.same_op))
_BATCH_ERRORS = {
    "call": "calls are inlined before batching",
    "tape_spread": "tape_spread input is already per-lane",
}


def vectorize(module: Module, name: str, lanes: int) -> Function:
    """Rewrite @name so it runs ``lanes`` independent inputs at once.

    The result @name__batched_B{lanes} takes every parameter with a
    leading lane axis and returns per-lane rows for every result; per
    lane the arithmetic is exactly the scalar program's.
    """
    if lanes < 1:
        raise BatchError("lane count must be positive")
    bname = f"{name}__batched_B{lanes}"
    if bname in module.functions:
        return module.get(bname)
    fn = module.get(name)
    sf = inline_sfunc(module, fn)
    out = flatten(_Vectorizer(module, sf, lanes, bname).build())
    module.add(out)
    return out


# --------------------------------------------------- lane marshalling


def stack_lanes(ty: Type, vals: list):
    """Pack per-sample runtime values into one lane-leading argument."""
    if not vals:  # a (0,) tensor has no type: extents are >= 1
        raise ValueError("stack of nothing")
    if ty.kind == "tensor":
        return T.stack([v for v in vals], 0)
    if ty.kind == "bool":
        return DenseTensor.from_flat((len(vals),), [1.0 if v else 0.0 for v in vals])
    return DenseTensor.from_flat((len(vals),), [float(v) for v in vals])


def unstack_lanes(ty: Type, value, lanes: int) -> list:
    """Split a lane-leading result back into per-sample values."""
    out = []
    for i in range(lanes):
        v = T.take(value, i, 0)
        if ty.kind == "bool":
            out.append(v != 0.0)
        elif ty.kind == "i64":
            out.append(int(v))
        else:
            out.append(v)
    return out


def batched_grad(module: Module, name: str, lanes: int, stacked_args: tuple,
                 seeds: tuple, step_limit: int = DEFAULT_STEP_LIMIT) -> dict[int, object]:
    """Per-lane gradients in one batched forward and one batched pullback.

    ``stacked_args`` and ``seeds`` carry a leading lane axis.  Returns
    the same mapping as ``grad`` with each cotangent holding all lanes.
    """
    aug_fn, pb_fn = augment(module, name)
    vaug = vectorize(module, aug_fn.name, lanes)
    vpb = vectorize(module, pb_fn.name, lanes)
    return run_aug_pb(module, module.get(name), vaug.name, vpb.name, stacked_args, seeds,
                      step_limit)
