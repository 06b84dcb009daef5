"""Seeded generator of small well-typed programs for differential tests.

The corpus trades raw coverage for numerical hygiene, because every
generated program is graded three ways at tight tolerances (adjoint
code vs. the trace oracle vs. finite differences).  Concretely:

* divisors are built as ``1 + b*b`` so they stay >= 1,
* ``log`` only sees ``1 + a*a``,
* ``exp`` only sees squashed arguments (tanh or sigmoid output),
* loop accumulators grow at most linearly in the trip count,
* a crude per-value magnitude bound steers operand choice so nothing
  overflows or drowns finite differencing in rounding error.

Kinked primitives (relu) are left to the handwritten fixtures; a
finite-difference probe stepping over the kink would flag a failure
that is not one.  Branch and select conditions are all float compares,
so ``stable_inputs`` can insist on a margin between the compared
values before an input sample is accepted.
"""

from __future__ import annotations

import random

from .ir import F64, I64, Function, Module, tensor_type
from .interp import EvalError
from .oracle import trace_eval
from .structure import SEmitter, SIf, SWhile, flatten
from .tensor import DenseTensor

_LIMIT = 80.0
_SHAPES = ((2,), (3,), (2, 2), (2, 3), (3, 2))


class GenError(Exception):
    pass


def _size(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


class _Gen:
    """One program's worth of generator state.

    Pools hold the value ids currently in scope, keyed by kind, and
    ``bound`` tracks a worst-case magnitude per value.  Region scoping
    is handled by snapshot/restore around if arms and loop bodies.
    """

    def __init__(self, rng: random.Random, em: SEmitter, scalar_only: bool):
        self.rng = rng
        self.em = em
        self.scalar_only = scalar_only
        self.floats: list[int] = []
        self.tens: dict[tuple[int, ...], list[int]] = {}
        self.ints: list[int] = []
        self.squash: set[int] = set()
        self.bound: dict[int, float] = {}
        self.ctl = 3

    # pools

    def add_float(self, vid: int, b: float, sq: bool = False) -> int:
        self.floats.append(vid)
        self.bound[vid] = min(b, _LIMIT)
        if sq:
            self.squash.add(vid)
        return vid

    def add_tensor(self, vid: int, shape: tuple[int, ...], b: float) -> int:
        self.tens.setdefault(shape, []).append(vid)
        self.bound[vid] = min(b, _LIMIT)
        return vid

    def snapshot(self):
        return (
            list(self.floats),
            {s: list(v) for s, v in self.tens.items()},
            set(self.squash),
        )

    def restore(self, snap) -> None:
        self.floats, self.tens, self.squash = snap

    def pick(self) -> int:
        return self.rng.choice(self.floats)

    def pick_small(self, cap: float) -> int:
        """A float bounded by cap, squashing a pool value if none is."""
        small = [v for v in self.floats if self.bound[v] <= cap]
        if small:
            return self.rng.choice(small)
        v = self.em.emit("tanh", (self.pick(),), None, "sq")
        return self.add_float(v, 1.0, sq=True)

    def pick_squashed(self) -> int:
        sq = [v for v in self.floats if v in self.squash]
        if sq:
            return self.rng.choice(sq)
        v = self.em.emit("sigmoid", (self.pick(),), None, "sg")
        return self.add_float(v, 1.0, sq=True)

    def pick_shape(self) -> tuple[int, ...] | None:
        shapes = [s for s, vs in self.tens.items() if vs]
        if not shapes:
            return None
        return self.rng.choice(shapes)

    # scalar statements

    def scalar_stmt(self) -> None:
        em, rng = self.em, self.rng
        kind = rng.choice(
            ("add", "sub", "mul", "div", "log", "exp", "pow", "tanh",
             "sigmoid", "neg", "select", "const")
        )
        if kind in ("add", "sub"):
            a, b = self.pick(), self.pick()
            v = em.emit(kind, (a, b), None, "t")
            self.add_float(v, self.bound[a] + self.bound[b])
        elif kind == "mul":
            a, b = self.pick(), self.pick()
            if self.bound[a] * self.bound[b] > _LIMIT:
                b = self.pick_squashed()
            v = em.emit("mul", (a, b), None, "t")
            self.add_float(v, self.bound[a] * self.bound[b])
        elif kind == "div":
            a, b = self.pick(), self.pick_small(8.0)
            s = em.emit("mul", (b, b), None, "d2")
            one = em.const_f64(1.0, "one")
            den = em.emit("add", (one, s), None, "den")
            v = em.emit("div", (a, den), None, "q")
            self.add_float(v, self.bound[a])
        elif kind == "log":
            a = self.pick_small(8.0)
            s = em.emit("mul", (a, a), None, "a2")
            one = em.const_f64(1.0, "one")
            arg = em.emit("add", (one, s), None, "lp")
            v = em.emit("log", (arg,), None, "lg")
            self.add_float(v, 5.0)
        elif kind == "exp":
            a = self.pick_squashed()
            v = em.emit("exp", (a,), None, "ex")
            self.add_float(v, 2.8)
        elif kind == "pow":
            n = rng.choice((2, 3))
            a = self.pick_small(4.0)
            v = em.emit("pow_int", (a,), {"n": n}, "pw")
            self.add_float(v, self.bound[a] ** n)
        elif kind in ("tanh", "sigmoid"):
            v = em.emit(kind, (self.pick(),), None, "s")
            self.add_float(v, 1.0, sq=True)
        elif kind == "neg":
            a = self.pick()
            v = em.emit("neg", (a,), None, "n")
            self.add_float(v, self.bound[a])
        elif kind == "select":
            a, b = self.pick(), self.pick()
            c = em.emit(rng.choice(("lt", "gt")), (a, b), None, "c")
            x, y = self.pick(), self.pick()
            v = em.emit("select", (c, x, y), None, "sel")
            self.add_float(v, max(self.bound[x], self.bound[y]))
        else:
            x = rng.uniform(-2.0, 2.0)
            v = em.const_f64(round(x, 4), "k")
            self.add_float(v, abs(x), sq=abs(x) <= 1.0)

    # tensor statements

    def tensor_stmt(self) -> None:
        em, rng = self.em, self.rng
        shape = self.pick_shape()
        if shape is None:
            return self.scalar_stmt()
        pool = self.tens[shape]
        kind = rng.choice(
            ("ew", "ew", "unary", "scalar", "div", "matmul", "transpose",
             "reduce_all", "reduce_axis", "bcast")
        )
        if kind == "ew":
            a, b = rng.choice(pool), rng.choice(pool)
            op = rng.choice(("add", "sub", "mul"))
            if op == "mul" and self.bound[a] * self.bound[b] > _LIMIT:
                a = em.emit("tanh", (a,), None, "tt")
                self.add_tensor(a, shape, 1.0)
            ba = self.bound[a] * self.bound[b] if op == "mul" \
                else self.bound[a] + self.bound[b]
            v = em.emit(op, (a, b), None, "w")
            self.add_tensor(v, shape, ba)
        elif kind == "unary":
            op = rng.choice(("tanh", "sigmoid", "neg"))
            a = rng.choice(pool)
            v = em.emit(op, (a,), None, "u")
            self.add_tensor(v, shape, 1.0 if op != "neg" else self.bound[a])
        elif kind == "scalar":
            s, a = self.pick_small(8.0), rng.choice(pool)
            op = rng.choice(("add", "mul"))
            b = self.bound[s] + self.bound[a] if op == "add" \
                else self.bound[s] * self.bound[a]
            if b > _LIMIT:
                op = "add"
                b = self.bound[s] + self.bound[a]
            v = em.emit(op, (s, a), None, "sw")
            self.add_tensor(v, shape, b)
        elif kind == "div":
            a, b = rng.choice(pool), rng.choice(pool)
            s = em.emit("mul", (b, b), None, "d2")
            one = em.const_f64(1.0, "one")
            den = em.emit("add", (one, s), None, "den")
            v = em.emit("div", (a, den), None, "q")
            self.add_tensor(v, shape, self.bound[a])
        elif kind == "matmul":
            pairs = [
                (sa, sb)
                for sa, va in self.tens.items()
                for sb, vb in self.tens.items()
                if va and vb and len(sa) == 2 and len(sb) == 2 and sa[1] == sb[0]
            ]
            if not pairs:
                return self.tensor_stmt()
            sa, sb = rng.choice(pairs)
            a, b = rng.choice(self.tens[sa]), rng.choice(self.tens[sb])
            bb = self.bound[a] * self.bound[b] * sa[1]
            if bb > _LIMIT:
                a = em.emit("tanh", (a,), None, "tt")
                self.add_tensor(a, sa, 1.0)
                bb = self.bound[b] * sa[1]
            v = em.emit("matmul", (a, b), None, "mm")
            self.add_tensor(v, (sa[0], sb[1]), bb)
        elif kind == "transpose":
            r2 = [(s, vs) for s, vs in self.tens.items() if len(s) == 2 and vs]
            if not r2:
                return self.tensor_stmt()
            s, vs = rng.choice(r2)
            a = rng.choice(vs)
            v = em.emit("transpose", (a,), None, "tp")
            self.add_tensor(v, (s[1], s[0]), self.bound[a])
        elif kind == "reduce_all":
            a = rng.choice(pool)
            v = em.emit("reduce_sum", (a,), {"axis": "all"}, "rs")
            self.add_float(v, self.bound[a] * _size(shape))
        elif kind == "reduce_axis":
            a = rng.choice(pool)
            ax = rng.randrange(len(shape))
            v = em.emit("reduce_sum", (a,), {"axis": ax}, "ra")
            rest = tuple(d for i, d in enumerate(shape) if i != ax)
            b = self.bound[a] * shape[ax]
            if rest:
                self.add_tensor(v, rest, b)
            else:
                self.add_float(v, b)
        else:
            s = self.pick_small(8.0)
            v = em.emit("bcast", (s,), {"shape": shape}, "bc")
            self.add_tensor(v, shape, self.bound[s])

    # control statements

    def if_stmt(self, depth: int) -> None:
        em, rng = self.em, self.rng
        self.ctl -= 1
        a, b = self.pick(), self.pick()
        cond = em.emit(rng.choice(("lt", "gt")), (a, b), None, "c")

        nmerge = rng.randint(1, 2)
        arm_vals: list[list[int]] = []
        arm_bounds: list[list[float]] = []
        regions = []
        for _ in range(2):
            snap = self.snapshot()
            em.push_region()
            for _ in range(rng.randint(1, 2)):
                self.stmt(depth + 1)
            picks = [self.pick() for _ in range(nmerge)]
            arm_vals.append(picks)
            arm_bounds.append([self.bound[p] for p in picks])
            regions.append(em.pop_region())
            self.restore(snap)

        merged = []
        for k in range(nmerge):
            mv = em.fresh("m", F64)
            merged.append((mv, F64))
            self.add_float(mv, max(arm_bounds[0][k], arm_bounds[1][k]))
        em.append(SIf(cond, regions[0], tuple(arm_vals[0]),
                      regions[1], tuple(arm_vals[1]), merged))

    def loop_stmt(self, depth: int, force_bound: int | None = None) -> None:
        em, rng = self.em, self.rng
        self.ctl -= 1
        if force_bound is not None:
            n = force_bound
            trips = 8
        elif self.ints and rng.random() < 0.5:
            n = rng.choice(self.ints)
            trips = 8
        else:
            trips = rng.randint(2, 5)
            n = em.const_i64(trips, "n")

        naccs = rng.randint(1, 2)
        inits = [self.pick_small(8.0) for _ in range(naccs)]
        zero = em.const_i64(0, "z")

        carried = [(em.fresh("i", I64), I64)]
        for k in range(naccs):
            carried.append((em.fresh("acc", F64), F64))
        ivid = carried[0][0]
        accs = [c for c, _ in carried[1:]]

        em.push_region()
        cond = em.emit("lt", (ivid, n), None, "go")
        header = [node.ins for node in em.pop_region()]

        snap = self.snapshot()
        acc_cap = max(self.bound[v] for v in inits) + trips * 4.0
        for a in accs:
            self.add_float(a, acc_cap)

        em.push_region()
        for _ in range(rng.randint(0, 2)):
            self.stmt(depth + 1)
        if rng.random() < 0.3:
            t = em.emit("itof", (ivid,), None, "fi")
            self.add_float(t, 8.0)
        back = [em.emit("add", (ivid, em.const_i64(1, "one")), None, "inext")]
        for a in accs:
            u = self.pick_small(4.0)
            form = rng.random()
            if form < 0.45:
                nxt = em.emit("add", (a, u), None, "step")
            elif form < 0.85:
                s = self.pick_squashed()
                scaled = em.emit("mul", (a, s), None, "decay")
                nxt = em.emit("add", (scaled, u), None, "step")
            else:
                sq = em.emit("tanh", (a,), None, "sq")
                nxt = em.emit("add", (sq, u), None, "step")
            back.append(nxt)
        body = em.pop_region()
        self.restore(snap)

        exits = [(em.fresh("out", F64), F64) for _ in accs]
        em.append(SWhile(carried, (zero,) + tuple(inits), header, cond,
                         body, tuple(back), exits, tuple(accs)))
        for xv, _ in exits:
            self.add_float(xv, acc_cap)

    def stmt(self, depth: int = 0) -> None:
        rng = self.rng
        can_ctl = self.ctl > 0 and depth < 3
        roll = rng.random()
        if can_ctl and roll < 0.22:
            if rng.random() < 0.5:
                self.if_stmt(depth)
            else:
                self.loop_stmt(depth)
        elif not self.scalar_only and self.tens and roll < 0.55:
            self.tensor_stmt()
        else:
            self.scalar_stmt()

    def result(self) -> int:
        em, rng = self.em, self.rng
        r = em.emit("add", (self.pick(), self.pick()), None, "r")
        b = 2 * max(self.bound[v] for v in self.floats)
        self.add_float(r, b)
        live = [vs for vs in self.tens.values() if vs]
        if live:
            t = rng.choice(rng.choice(live))
            s = em.emit("reduce_sum", (t,), {"axis": "all"}, "tsum")
            s = em.emit("tanh", (s,), None, "tsq")
            r = em.emit("add", (r, s), None, "r")
            self.add_float(r, b + 1.0)
        if self.bound[r] > 40.0:
            scale = em.const_f64(0.05, "sc")
            r = em.emit("mul", (r, scale), None, "r")
            self.add_float(r, 4.0)
        return r


def random_program(
    module: Module,
    rng: random.Random,
    name: str,
    scalar_only: bool = False,
) -> Function:
    """Build one random function into the module and return it.

    Every program takes one to three f64 params, optionally a small
    tensor param and an i64 trip-count param, and returns a single f64
    combining the live values.  All randomness flows through ``rng``.
    """
    em = SEmitter(name, (F64,), module)
    g = _Gen(rng, em, scalar_only)

    for k in range(rng.randint(1, 3)):
        v = em.param(f"x{k}", F64)
        g.add_float(v, 2.0)
    int_param = None
    if not scalar_only and rng.random() < 0.6:
        shape = rng.choice(_SHAPES)
        v = em.param("tin", tensor_type(*shape))
        g.add_tensor(v, shape, 2.0)
    if rng.random() < 0.4:
        int_param = em.param("steps", I64)
        g.ints.append(int_param)

    stmts = rng.randint(4, 9)
    loop_at = rng.randrange(stmts) if int_param is not None else -1
    for k in range(stmts):
        if k == loop_at:
            g.loop_stmt(0, force_bound=int_param)
        else:
            g.stmt(0)

    sf = em.finish((g.result(),))
    fn = flatten(sf)
    module.add(fn)
    return fn


def sample_inputs(fn: Function, rng: random.Random) -> tuple:
    """One input tuple for fn: floats U[-2,2], trip counts in [1,8]."""
    args = []
    for _, ty in fn.params:
        if ty.kind == "f64":
            args.append(rng.uniform(-2.0, 2.0))
        elif ty.kind == "i64":
            args.append(rng.randint(1, 8))
        elif ty.is_tensor:
            vals = [rng.uniform(-2.0, 2.0) for _ in range(_size(ty.shape))]
            args.append(DenseTensor.from_flat(ty.shape, vals))
        else:
            raise GenError(f"cannot sample input of type {ty}")
    return tuple(args)


def stable_inputs(
    module: Module,
    name: str,
    rng: random.Random,
    margin: float = 1e-3,
    tries: int = 64,
) -> tuple | None:
    """Sample inputs whose branch decisions sit away from the boundary.

    Finite differencing perturbs the inputs, so any float compare that
    lands within ``margin`` of a tie could flip and invalidate the
    probe.  Returns None when no acceptable sample turns up, which the
    caller should treat as a reason to discard the program.
    """
    fn = module.get(name)
    for _ in range(tries):
        args = sample_inputs(fn, rng)
        try:
            _, trace = trace_eval(module, name, args)
        except EvalError:
            continue
        if trace.min_compare_margin() > margin:
            return args
    return None


def generate_suite(
    module: Module,
    rng: random.Random,
    count: int,
    inputs_per: int = 5,
    scalar_only: bool = False,
    margin: float = 1e-3,
) -> list[tuple[str, list[tuple]]]:
    """Generate ``count`` programs, each with accepted input samples.

    Programs that cannot produce ``inputs_per`` margin-stable samples
    are dropped and regenerated under a fresh name, so the returned
    suite is always full-size and fully deterministic in ``rng``.
    """
    suite: list[tuple[str, list[tuple]]] = []
    attempt = 0
    while len(suite) < count:
        nm = f"gen{attempt}"
        attempt += 1
        random_program(module, rng, nm, scalar_only=scalar_only)
        batch = []
        for _ in range(inputs_per):
            args = stable_inputs(module, nm, rng, margin=margin)
            if args is None:
                break
            batch.append(args)
        if len(batch) == inputs_per:
            suite.append((nm, batch))
        else:
            del module.functions[nm]
    return suite
