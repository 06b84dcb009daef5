"""Training-demo mechanics: data generation, the single-function loss,
the summed two-loss step, and history determinism."""

import json
import random

import pytest

from ssagrad import (DANConfig, DenseTensor, EvalError, Module, augment, dan_step, parse_ir,
                     print_ir, train, verify)
from ssagrad.interp import Machine
from ssagrad.ir import F64
from ssagrad.nn_train import (DenseLayerParams, MetricsHistory, ModelParams, _batch_tensors,
                              _weight_args, build_eval_ir, build_loss_ir, build_step_ir,
                              evaluate, init_params, make_synthetic)

from conftest import bits, rel

SMALL = DANConfig(dim=6, trunk_sizes=(6, 4), head_sizes=(4, 1),
                  n_samples=48, batch_size=8, epochs=2)


def sizes(cfg):
    return (cfg.trunk_sizes, cfg.head_sizes, cfg.head_sizes)


def test_make_synthetic_deterministic():
    a = make_synthetic(SMALL)
    b = make_synthetic(SMALL)
    assert len(a) == SMALL.n_samples
    for s, t in zip(a, b):
        assert s.x == t.x and s.y_c == t.y_c and s.y_d == t.y_d


def test_make_synthetic_rho_one():
    data = make_synthetic(DANConfig(rho=1.0, n_samples=500))
    assert all(s.y_d == s.y_c for s in data)


def test_make_synthetic_rho_half_independent():
    data = make_synthetic(DANConfig(rho=0.5, n_samples=10_000))
    agree = sum(s.y_d == s.y_c for s in data) / len(data)
    # binomial sd at n=10k is 0.005; 4 sigma
    assert abs(agree - 0.5) < 0.02


def test_make_synthetic_rho_default_agreement():
    data = make_synthetic(DANConfig(n_samples=10_000))
    agree = sum(s.y_d == s.y_c for s in data) / len(data)
    assert abs(agree - 0.95) < 0.01


def test_magnitude_code_carries_dataset_identity():
    data = make_synthetic(DANConfig(n_samples=2_000))
    # the signature block is sign-randomized, so its mean is near zero
    # but its mean magnitude separates the two dataset labels cleanly
    mags = {0: [], 1: []}
    for s in data:
        block = s.x.flat()[8:]
        mags[s.y_d].append(sum(abs(v) for v in block) / len(block))
    m0 = sum(mags[0]) / len(mags[0])
    m1 = sum(mags[1]) / len(mags[1])
    assert m1 > 3 * m0


def test_loss_is_one_function():
    m = Module()
    fn = build_loss_ir(m, sizes(SMALL), 8)
    assert fn.name == "dan_minibatch_loss_8"
    assert len(fn.results) == 2
    assert verify(m) == []
    again = build_loss_ir(m, sizes(SMALL), 8)
    assert again is fn
    other = build_loss_ir(m, sizes(SMALL), 4)
    assert other is not fn


def test_loss_lambda_zero_drops_confusion_term():
    m = Module()
    fn = build_loss_ir(m, sizes(SMALL), 8)
    params = init_params(sizes(SMALL), random.Random(1))
    batch = make_synthetic(SMALL)[:8]
    from ssagrad.nn_train import _batch_tensors
    X, Yc, Yd = _batch_tensors(batch)
    machine = Machine(m, 2_000_000)
    c0, d0 = machine.call(fn.name, _weight_args(params) + (X, Yc, Yd, 0.0))
    c1, d1 = machine.call(fn.name, _weight_args(params) + (X, Yc, Yd, 1.0))
    assert d0 == d1  # dataset-head loss has no lambda in it
    assert c1 > c0  # the confusion term only adds


def test_dan_step_zero_lr_is_identity():
    m = Module()
    params = init_params(sizes(SMALL), random.Random(2))
    batch = make_synthetic(SMALL)[:8]
    cfg = DANConfig(**{**SMALL.__dict__, "lr": 0.0})
    new, losses = dan_step(m, params, batch, cfg)
    for a, b in zip(params.layers(), new.layers()):
        assert a.W.data.tobytes() == b.W.data.tobytes()
        assert a.b.data.tobytes() == b.b.data.tobytes()
    assert losses["c_loss"] > 0.0 and losses["d_loss"] > 0.0


def test_dan_step_moves_against_gradient():
    m = Module()
    params = init_params(sizes(SMALL), random.Random(2))
    batch = make_synthetic(SMALL)[:8]
    new, first = dan_step(m, params, batch, SMALL)
    _, second = dan_step(m, new, batch, SMALL)
    # one step on the same batch lowers its class loss at lam=1? not
    # guaranteed in general; what is guaranteed is a parameter change
    assert any(
        a.W.data.tobytes() != b.W.data.tobytes()
        for a, b in zip(params.layers(), new.layers())
    )
    assert first["c_loss"] != second["c_loss"]


def test_dan_step_empty_batch():
    m = Module()
    params = init_params(sizes(SMALL), random.Random(2))
    with pytest.raises(ValueError):
        dan_step(m, params, [], SMALL)


def _reference_step(m, params, batch, cfg):
    """A step as three calls: the augmented loss once, its pullback at
    seeds (1,0) and (0,1), and the update in numpy."""
    loss = build_loss_ir(m, sizes(cfg), len(batch))
    aug, pb = augment(m, loss.name)
    machine = Machine(m)
    c_loss, d_loss, blog, vstack = machine.call(
        aug.name, _weight_args(params) + _batch_tensors(batch) + (cfg.lam,))
    g_c = machine.call(pb.name, (blog, vstack, 1.0, 0.0))
    g_d = machine.call(pb.name, (blog, vstack, 0.0, 1.0))
    flat = [DenseLayerParams(*(DenseTensor._own(w.data - cfg.lr * (gc.data + gd.data))
                               for w, gc, gd in zip((layer.W, layer.b), g_c[2 * i:], g_d[2 * i:])))
            for i, layer in enumerate(params.layers())]
    nt, nc = len(params.trunk), len(params.class_head)
    return ModelParams(flat[:nt], flat[nt:nt + nc], flat[nt + nc:]), (c_loss, d_loss)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_dan_step_is_the_three_call_step_bit_for_bit(lam):
    cfg = DANConfig(**{**SMALL.__dict__, "lam": lam})
    data = make_synthetic(cfg)
    m = Module()
    params = want = init_params(sizes(cfg), random.Random(4))
    for k in range(50):
        batch = data[8 * (k % 6):8 * (k % 6) + 8]
        params, losses = dan_step(m, params, batch, cfg)
        want, want_losses = _reference_step(m, want, batch, cfg)
        assert [bits(v) for v in (losses["c_loss"], losses["d_loss"])] == \
            [bits(v) for v in want_losses]
        assert [bits(v) for v in _weight_args(params)] == [bits(v) for v in _weight_args(want)]


def test_step_is_one_function_with_no_trace_and_no_repeat():
    m = Module()
    fn = build_step_ir(m, sizes(SMALL), 8)
    assert fn.name == "dan_minibatch_step_8"
    assert build_step_ir(m, sizes(SMALL), 8) is fn
    assert [ty for _, ty in fn.params[-2:]] == [F64, F64]  # lam, lr
    assert fn.results == tuple(ty for _, ty in fn.params[:-5]) + (F64, F64)
    body = [ins for b in fn.blocks for ins in b.body]
    assert not [ins for ins in body if ins.op.startswith("tape_")]
    keys = [(ins.op, ins.operands, repr(sorted(ins.attrs.items()))) for ins in body]
    assert len(set(keys)) == len(keys)
    assert verify(m) == []
    text = print_ir(m)
    assert print_ir(parse_ir(text)) == text


def test_dan_step_out_of_steps_is_a_located_error():
    m = Module()
    params = init_params(sizes(SMALL), random.Random(2))
    with pytest.raises(EvalError, match=r"^@dan_minibatch_step_8 \^entry instr 10: "
                                        r"step limit exhausted$"):
        dan_step(m, params, make_synthetic(SMALL)[:8], SMALL, step_limit=10)


def test_evaluate_keys():
    m = Module()
    params = init_params(sizes(SMALL), random.Random(3))
    data = make_synthetic(SMALL)
    out = evaluate(m, params, data)
    assert set(out) == {"class_acc", "domain_acc", "domain_probe_acc"}
    for v in out.values():
        assert 0.0 <= v <= 1.0


def test_eval_ir_verifies():
    m = Module()
    fn = build_eval_ir(m, sizes(SMALL), 48)
    assert len(fn.results) == 3
    assert verify(m) == []


def test_train_epochs_zero():
    h = train(DANConfig(epochs=0))
    assert h.records == []
    assert h.to_jsonl() == ""


def test_train_record_schema():
    h = train(DANConfig(**{**SMALL.__dict__, "epochs": 1}))
    assert len(h.records) == 1
    assert set(h.records[0]) == {"epoch", "c_loss", "d_loss", "class_acc",
                                "domain_probe_acc"}


def test_train_deterministic_and_frozen():
    h = train(DANConfig(lam=1.0, epochs=3))
    again = train(DANConfig(lam=1.0, epochs=3))
    assert h.records == again.records
    # regression pin at the ledger defaults, 3 epochs in
    assert h.records[2] == {
        "epoch": 2,
        "c_loss": 1.4641414371526882,
        "d_loss": 0.6913818267282313,
        "class_acc": 0.5875,
        "domain_probe_acc": 0.75,
    }


def test_metrics_jsonl_round_trip(tmp_path):
    h = MetricsHistory([{"epoch": 0, "c_loss": 1.25}, {"epoch": 1, "c_loss": 1.0}])
    path = tmp_path / "m.jsonl"
    h.write(str(path))
    lines = path.read_text().splitlines()
    assert [json.loads(l) for l in lines] == h.records
    assert path.read_text().endswith("\n")
