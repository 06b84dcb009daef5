"""Two-headed classifier trained with a gradient-confusion penalty.

A shared dense trunk feeds a class head and a dataset head.  The
synthetic data carries an engineered confound: the dataset label
correlates with the class label, and a sign-randomized magnitude code
in a block of coordinates encodes dataset identity outright.  Training
pits two losses against each other:

    c_loss = bce(yc_hat, y_c) + lam * bce(yd_hat, 1 - y_d)
    d_loss = bce(yd_hat, y_d)

Each step backpropagates both losses and applies the summed gradient
to every parameter it reaches, so the trunk is pushed to strip the
features the dataset head relies on while the dataset head keeps
chasing whatever signal remains.

The minibatch loss is one IR function, and so is a whole training step:
its forward pass, both pullbacks and the update, emitted into one
function and simplified (``build_step_ir``).  Evaluation (head accuracy,
trunk features for the probe) goes through IR as well; only the
ridge-regression probe itself runs as host-side numpy.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .interp import DEFAULT_STEP_LIMIT, Machine
from .ir import F64, Function, Module, tensor_type
from .reverse_ad import vjp
from .structure import SEmitter, add_tree, drop_dead, simplify
from .tensor import DenseTensor


@dataclass
class DenseLayerParams:
    """One dense layer; W is out x in, b is out."""

    W: DenseTensor
    b: DenseTensor


@dataclass
class ModelParams:
    trunk: list[DenseLayerParams]
    class_head: list[DenseLayerParams]
    domain_head: list[DenseLayerParams]

    def layers(self) -> list[DenseLayerParams]:
        return [*self.trunk, *self.class_head, *self.domain_head]


@dataclass
class DANConfig:
    lam: float = 1.0
    lr: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    seed: int = 7
    rho: float = 0.95
    dim: int = 16
    trunk_sizes: tuple[int, ...] = (16, 8)
    head_sizes: tuple[int, ...] = (8, 1)
    n_samples: int = 320


@dataclass
class SyntheticSample:
    x: DenseTensor
    y_c: int
    y_d: int


@dataclass
class MetricsHistory:
    records: list[dict] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [json.dumps(r, separators=(",", ":")) for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_jsonl())


def _sizes_of(params: ModelParams) -> tuple[tuple[int, ...], ...]:
    def chain(layers: list[DenseLayerParams]) -> tuple[int, ...]:
        return (layers[0].W.shape[1],) + tuple(l.W.shape[0] for l in layers)

    return chain(params.trunk), chain(params.class_head), chain(params.domain_head)


def _weight_args(params: ModelParams) -> tuple:
    out = []
    for layer in params.layers():
        out.extend((layer.W, layer.b))
    return tuple(out)


def _declare_weights(em: SEmitter, layer_sizes) -> list[list[tuple[int, int]]]:
    """Emit W/b params for each chain; returns per-chain (W, b) vid pairs."""
    chains = []
    for prefix, sizes in zip(("t", "c", "d"), layer_sizes):
        pairs = []
        for k in range(len(sizes) - 1):
            fi, fo = sizes[k], sizes[k + 1]
            w = em.param(f"{prefix}W{k}", tensor_type(fo, fi))
            b = em.param(f"{prefix}b{k}", tensor_type(fo))
            pairs.append((w, b))
        chains.append(pairs)
    return chains


def init_params(layer_sizes, rng: random.Random) -> ModelParams:
    """Uniform init scaled by fan-in and fan-out.

    Head biases start at zero.  Trunk biases start at 0.4:
    with zero bias, tanh units are odd functions and the magnitude
    signature in the synthetic data is invisible to every first-step
    gradient; a small constant offset breaks that symmetry so the
    dataset head can begin demodulating it.
    """
    def chain(sizes, bias: float) -> list[DenseLayerParams]:
        out = []
        for k in range(len(sizes) - 1):
            fi, fo = sizes[k], sizes[k + 1]
            r = math.sqrt(6.0 / (fi + fo))
            flat = [rng.uniform(-r, r) for _ in range(fo * fi)]
            out.append(DenseLayerParams(
                DenseTensor.from_flat((fo, fi), flat),
                DenseTensor.from_flat((fo,), [bias] * fo),
            ))
        return out

    t, c, d = layer_sizes
    return ModelParams(chain(t, 0.4), chain(c, 0.0), chain(d, 0.0))


# ------------------------------------------------------- IR builders


def _dense(em: SEmitter, pairs, h: int, tag: str, squash_last: bool) -> int:
    """Dense layers ``h @ w.T + b`` for each (w, b) of ``pairs``, each
    squashed by tanh but the last unless ``squash_last``; every value's
    name starts with ``tag``."""
    for k, (w, b) in enumerate(pairs):
        wt = em.emit("transpose", (w,), None, f"{tag}wt")
        z = em.emit("matmul", (h, wt), None, f"{tag}z")
        h = em.emit("add", (z, b), None, f"{tag}zb")
        if squash_last or k + 1 < len(pairs):
            h = em.emit("tanh", (h,), None, f"{tag}h")
    return h


def _batch_head(em: SEmitter, pairs, h: int, n: int, tag: str) -> int:
    flatz = em.emit("reshape", (_dense(em, pairs, h, tag, False),), {"shape": (n,)}, f"{tag}logit")
    return em.emit("sigmoid", (flatz,), None, f"{tag}hat")


def _bce_mean(em: SEmitter, p: int, y: int, n: int, lob: int, hib: int,
              ones: int, tag: str) -> int:
    """Mean binary cross-entropy with predictions clamped into (0, 1)."""
    under = em.emit("lt", (p, lob), None, f"{tag}u")
    p1 = em.emit("select", (under, lob, p), None, f"{tag}p1")
    over = em.emit("gt", (p1, hib), None, f"{tag}o")
    p2 = em.emit("select", (over, hib, p1), None, f"{tag}p2")
    t1 = em.emit("mul", (y, em.emit("log", (p2,), None, f"{tag}lp")), None, f"{tag}t1")
    yn = em.emit("sub", (ones, y), None, f"{tag}yn")
    pn = em.emit("sub", (ones, p2), None, f"{tag}pn")
    t2 = em.emit("mul", (yn, em.emit("log", (pn,), None, f"{tag}ln")), None, f"{tag}t2")
    s = em.emit("add", (t1, t2), None, f"{tag}s")
    tot = em.emit("reduce_sum", (s,), {"axis": "all"}, f"{tag}tot")
    scale = em.const_f64(-1.0 / n, f"{tag}scale")
    return em.emit("mul", (tot, scale), None, f"{tag}bce")


def build_loss_ir(module: Module, layer_sizes, batch_size: int) -> Function:
    """Emit the whole minibatch loss as one function.

    @dan_minibatch_loss_{B}(weights..., X, Yc, Yd, lam) returns
    (c_loss, d_loss).  lam rides along as a runtime argument so one
    build serves every penalty weight.
    """
    name = f"dan_minibatch_loss_{batch_size}"
    if name in module.functions:
        return module.get(name)
    n = batch_size
    em = SEmitter(name, (F64, F64), module)
    trunk, class_head, domain_head = _declare_weights(em, layer_sizes)
    dim = layer_sizes[0][0]
    x = em.param("X", tensor_type(n, dim))
    yc = em.param("Yc", tensor_type(n))
    yd = em.param("Yd", tensor_type(n))
    lam = em.param("lam", F64)

    h = _dense(em, trunk, x, "", True)
    yc_hat = _batch_head(em, class_head, h, n, "c")
    yd_hat = _batch_head(em, domain_head, h, n, "d")

    eps = 1e-7
    lob = em.emit("bcast", (em.const_f64(eps, "lo"),), {"shape": (n,)}, "lob")
    hib = em.emit("bcast", (em.const_f64(1.0 - eps, "hi"),), {"shape": (n,)}, "hib")
    ones = em.emit("bcast", (em.const_f64(1.0, "one"),), {"shape": (n,)}, "ones")

    class_term = _bce_mean(em, yc_hat, yc, n, lob, hib, ones, "c")
    yd_flip = em.emit("sub", (ones, yd), None, "ydflip")
    confuse = _bce_mean(em, yd_hat, yd_flip, n, lob, hib, ones, "x")
    c_loss = em.emit("add", (class_term, em.emit("mul", (lam, confuse), None, "pen")),
                     None, "c_loss")
    d_loss = _bce_mean(em, yd_hat, yd, n, lob, hib, ones, "d")

    return add_tree(module, em.finish((c_loss, d_loss)))


def build_eval_ir(module: Module, layer_sizes, n: int) -> Function:
    """@dan_eval_{n}(weights..., X) -> (YcHat, YdHat, H).

    Head probabilities for accuracy plus the trunk features the probe
    fits against, all from the same forward pass.
    """
    name = f"dan_eval_{n}"
    if name in module.functions:
        return module.get(name)
    trunk_out = layer_sizes[0][-1]
    em = SEmitter(
        name, (tensor_type(n), tensor_type(n), tensor_type(n, trunk_out)), module
    )
    trunk, class_head, domain_head = _declare_weights(em, layer_sizes)
    dim = layer_sizes[0][0]
    x = em.param("X", tensor_type(n, dim))
    h = _dense(em, trunk, x, "", True)
    yc_hat = _batch_head(em, class_head, h, n, "c")
    yd_hat = _batch_head(em, domain_head, h, n, "d")
    return add_tree(module, em.finish((yc_hat, yd_hat, h)))


def build_step_ir(module: Module, layer_sizes, batch_size: int) -> Function:
    """@dan_minibatch_step_{B}(weights..., X, Yc, Yd, lam, lr) -> (new
    weights..., c_loss, d_loss): the loss's forward pass and its pullbacks
    at seeds (1,0) and (0,1), emitted straight into this one function
    (``vjp``), each with no adjoint code for the loss seeded 0.0, then
    ``W - lr * (g_c + g_d)`` for each weight.  ``simplify``
    forwards every trace entry and computes what both pullbacks share
    once; ``drop_dead`` removes the cotangents no update reads."""
    name = f"dan_minibatch_step_{batch_size}"
    if name in module.functions:
        return module.get(name)
    loss = build_loss_ir(module, layer_sizes, batch_size)
    weights = tuple(ty for _, ty in loss.params[:-4])  # all but X, Yc, Yd and lam
    em = SEmitter(name, weights + (F64, F64), module)
    args = tuple(em.param(loss.value_name(pv), ty) for pv, ty in loss.params)
    lr = em.param("lr", F64)
    losses, (g_c, g_d) = vjp(em, loss.name, args, [(1.0, 0.0), (0.0, 1.0)])
    new = []
    for w, gc, gd in zip(args[:len(weights)], g_c, g_d):
        step = em.emit("mul", (lr, em.emit("add", (gc, gd), None, "g")), None, "step")
        new.append(em.emit("sub", (w, step), None, em.vnames[w]))
    return add_tree(module, drop_dead(simplify(em.finish(tuple(new) + losses))))


# ---------------------------------------------------------- training


def make_synthetic(cfg: DANConfig) -> list[SyntheticSample]:
    """Confounded two-label data, deterministic in cfg.seed.

    P(y_d = y_c) = rho ties the labels together.  The class label
    shifts the first quarter of the coordinates by a small mean offset.
    The dataset label is magnitude-coded into the back half: each of
    those gets a random sign times a magnitude that depends on y_d, so
    its mean is zero and no linear readout of raw features sees it.  A
    trunk has to rectify before the signature becomes linearly
    decodable, which is exactly what dataset-head pressure teaches it
    to do, and what the confusion penalty starves.
    """
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(cfg.n_samples):
        y_c = 1 if rng.random() < 0.5 else 0
        y_d = y_c if rng.random() < cfg.rho else 1 - y_c
        vals = [rng.gauss(0.0, 0.6) for _ in range(cfg.dim)]
        sc = 0.25 if y_c == 1 else -0.25
        m = 2.0 if y_d == 1 else 0.3
        for j in range(max(1, cfg.dim // 4)):
            vals[j] += sc
        for j in range(cfg.dim // 2, cfg.dim):
            s = 1.0 if rng.random() < 0.5 else -1.0
            vals[j] = s * (m + rng.gauss(0.0, 0.1))
        out.append(SyntheticSample(DenseTensor.from_flat((cfg.dim,), vals), y_c, y_d))
    return out


def _batch_tensors(batch: list[SyntheticSample]) -> tuple:
    # np.array refuses samples of mismatched shapes with a ValueError
    X = DenseTensor._own(np.array([s.x.data for s in batch]))
    Yc = DenseTensor._own(np.array([s.y_c for s in batch], dtype=np.float64))
    Yd = DenseTensor._own(np.array([s.y_d for s in batch], dtype=np.float64))
    return X, Yc, Yd


@np.errstate(all="ignore")
def dan_step(
    module: Module,
    params: ModelParams,
    batch: list[SyntheticSample],
    cfg: DANConfig,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> tuple[ModelParams, dict]:
    """One training step: forward once, pull back both losses, descend.

    One call of @dan_minibatch_step_{B} (``build_step_ir``), whose forward
    pass runs once for both pullbacks.  The applied gradient on every
    parameter is the sum of what both losses send there, and the update
    is plain gradient descent.
    """
    if not batch:
        raise ValueError("dan_step needs a nonempty batch")
    step = build_step_ir(module, _sizes_of(params), len(batch))
    args = _weight_args(params) + _batch_tensors(batch) + (cfg.lam, cfg.lr)
    out = Machine(module, step_limit).run(step, args)
    flat = [DenseLayerParams(w, b) for w, b in zip(out[0:-2:2], out[1:-2:2])]
    nt, nc = len(params.trunk), len(params.class_head)
    new = ModelParams(flat[:nt], flat[nt:nt + nc], flat[nt + nc:])
    return new, {"c_loss": out[-2], "d_loss": out[-1]}


def _domain_probe_acc(H: DenseTensor, yd: list[int]) -> float:
    """Ridge-fit (penalty 0.1) linear probe on frozen trunk features
    predicting y_d.

    Two-fold cross-validated: fit on one half, score the other, and
    average, so the number reflects decodable signal rather than an
    in-sample fit.
    """
    X = np.column_stack([H.data, np.ones(H.shape[0])])
    t = np.array([1.0 if y == 1 else -1.0 for y in yd])
    acc = 0.0
    for tr, te in ((slice(0, None, 2), slice(1, None, 2)),
                   (slice(1, None, 2), slice(0, None, 2))):
        gram = X[tr].T @ X[tr] + 0.1 * np.eye(X.shape[1])
        w = np.linalg.solve(gram, X[tr].T @ t[tr])
        acc += float(np.mean((X[te] @ w >= 0.0) == (t[te] > 0.0)))
    return acc / 2.0


@np.errstate(all="ignore")
def evaluate(
    module: Module,
    params: ModelParams,
    data: list[SyntheticSample],
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> dict:
    """Class accuracy, dataset-head accuracy, and probe accuracy."""
    sizes = _sizes_of(params)
    fn = build_eval_ir(module, sizes, len(data))
    X, _, _ = _batch_tensors(data)
    yc_hat, yd_hat, H = Machine(module, step_limit).call(
        fn.name, _weight_args(params) + (X,)
    )
    yc = np.array([s.y_c for s in data])
    yd = np.array([s.y_d for s in data])
    class_acc = float(np.mean((yc_hat.data >= 0.5) == (yc == 1)))
    domain_acc = float(np.mean((yd_hat.data >= 0.5) == (yd == 1)))
    probe = _domain_probe_acc(H, [s.y_d for s in data])
    return {"class_acc": class_acc, "domain_acc": domain_acc,
            "domain_probe_acc": probe}


def train(cfg: DANConfig, module: Module | None = None) -> MetricsHistory:
    """Run the full loop; one metrics record per epoch.

    Deterministic in cfg: data, init, and batch order all derive from
    cfg.seed, and every float in the history comes out bit-identical
    across runs.
    """
    m = module if module is not None else Module()
    layer_sizes = (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)
    data = make_synthetic(cfg)
    params = init_params(layer_sizes, random.Random(cfg.seed + 1))
    order_rng = random.Random(cfg.seed + 2)

    nb = len(data) // cfg.batch_size
    history = MetricsHistory()
    for epoch in range(cfg.epochs):
        order = list(range(len(data)))
        order_rng.shuffle(order)
        c_sum = d_sum = 0.0
        for k in range(nb):
            idx = order[k * cfg.batch_size:(k + 1) * cfg.batch_size]
            params, step_metrics = dan_step(m, params, [data[i] for i in idx], cfg)
            c_sum += step_metrics["c_loss"]
            d_sum += step_metrics["d_loss"]
        ev = evaluate(m, params, data)
        history.records.append({
            "epoch": epoch,
            "c_loss": c_sum / nb,
            "d_loss": d_sum / nb,
            "class_acc": ev["class_acc"],
            "domain_probe_acc": ev["domain_probe_acc"],
        })
    return history
