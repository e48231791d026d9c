"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from three places only: published model sizes and
protocol constants, independent oracles defined in ``oracles.py``, and
smoke-run thresholds frozen after an initial oracle run.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from qaxial import autodiff as ad
from qaxial.autodiff import Tensor
from qaxial.axial import AxialAttention1D, axial_flop_count, full_attention_flop_count
from qaxial.cli import GRAD_CHECK_THRESHOLD, run_grad_check_suite
from qaxial.data import synthetic_classification_dataset
from qaxial.nn import Linear, Module
from qaxial.quaternion import (
    Quaternion,
    QuaternionBank1x1,
    QuaternionConv2d,
    hamilton_product,
)
from qaxial.recon import color_reconstruction_experiment
from qaxial.training import (
    SGDMomentum,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    lr_schedule,
    train,
)
from qaxial.zoo import ArchitectureSpec, build, count_layers, count_params, spec_for

from oracles import dense_attention_1d, naive_conv2d, unit_table_matrix
from parallel import map_seeds

PUBLISHED = [
    ("resnet", 26, 13.6e6, 0.03), ("quat_resnet", 26, 15.1e6, 0.05),
    ("axial", 26, 5.7e6, 0.05), ("quat_axial", 26, 6.0e6, 0.07),
    ("resnet", 50, 25.5e6, 0.03), ("quat_resnet", 50, 27.6e6, 0.05),
    ("axial", 50, 11.5e6, 0.05), ("quat_axial", 50, 11.9e6, 0.07),
    ("resnet", 35, 18.5e6, 0.03), ("quat_resnet", 35, 20.5e6, 0.05),
    ("axial", 35, 8.4e6, 0.05),
]


def report(criterion, message):
    print(f"\nPASS criterion {criterion}: {message}")


def test_criterion_01_parameter_count_reproduction():
    started = time.time()
    measured = {}
    for variant, depth, target, tol in PUBLISHED:
        got = count_params(build(spec_for(variant, depth)))
        measured[(variant, depth)] = got
        assert abs(got - target) <= tol * target, \
            f"{variant}-{depth}: {got} outside {target}+-{tol:.0%}"
    # implementation's own accounting: banks add exactly their channel counts
    for depth in (26, 50):
        spec = spec_for("axial", depth)
        bank_channels = sum(m * mult for (m, _), mult
                            in zip(spec.group_plan(), spec.block_multipliers))
        assert measured[("quat_axial", depth)] \
            == measured[("axial", depth)] + bank_channels
    summary = ", ".join(f"{v}-{d}={measured[(v, d)] / 1e6:.2f}M"
                        for v, d, _, _ in PUBLISHED)
    report(1, f"all 11 published counts matched ({summary}; "
              f"{time.time() - started:.0f}s)")


def test_criterion_02_layer_count_arithmetic():
    for mults, expected in (((1, 2, 4, 1), 26), ((2, 3, 4, 2), 35),
                            ((3, 4, 6, 3), 50)):
        for variant in ("resnet", "quat_resnet", "axial", "quat_axial"):
            assert count_layers(ArchitectureSpec(variant, mults)) == expected
    assert count_layers(spec_for("quat_axial", 50), include_quaternion=True) == 66
    # 26 + 8 banks = 34 by the same rule that gives 50 + 16 = 66; the
    # commonly quoted 33 for this family does not follow that rule
    assert count_layers(spec_for("quat_axial", 26), include_quaternion=True) == 34
    report(2, "26/35/50 reproduced; quat-axial 66 at depth 50, "
              "34 at depth 26 (documented vs the commonly quoted 33)")


def test_criterion_03_quaternion_algebra_oracle():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10_000):
        p, q = rng.normal(size=4), rng.normal(size=4)
        got = hamilton_product(Quaternion(*p), Quaternion(*q)).as_array()
        worst = max(worst, np.abs(got - unit_table_matrix(p) @ q).max())
    assert worst < 1e-12
    i, j = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)
    assert hamilton_product(i, j) == Quaternion(0, 0, 0, 1)
    assert hamilton_product(j, i) == Quaternion(0, 0, 0, -1)
    report(3, f"10,000 random pairs within {worst:.2e} of the 4x4 matrix "
              "oracle; i*j=k and j*i=-k exact")


def test_criterion_04_structured_weight_equivalence():
    from oracles import expand_quaternion_weight, naive_quaternion_bank
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(14):
        q_in, q_out = rng.integers(1, 5, size=2)
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1]))
        h = int(rng.integers(k, 7))
        layer = QuaternionConv2d(4 * q_in, 4 * q_out, k, stride, pad,
                                 rng=np.random.default_rng(rng.integers(1e6)))
        x = rng.normal(size=(2, 4 * q_in, h, h))
        comps = np.moveaxis(layer.weight.data, 1, 0).astype(np.float64)
        got = layer(Tensor(x.astype(np.float32))).data
        want = naive_conv2d(x, expand_quaternion_weight(comps), stride=stride,
                            padding=pad)
        scale = max(1.0, np.abs(want).max())
        npt.assert_allclose(got, want, atol=1e-6 * scale)
        checked += 1
    for _ in range(8):
        m = int(rng.integers(1, 6)) * 4
        bank = QuaternionBank1x1(m, rng=np.random.default_rng(rng.integers(1e6)))
        x = rng.normal(size=(2, m, 3, 3))
        comps = bank.weight.data.T.astype(np.float64)
        got = bank(Tensor(x.astype(np.float32))).data
        want = naive_quaternion_bank(x, comps)
        npt.assert_allclose(got, want, atol=1e-6 * max(1.0, np.abs(want).max()))
        checked += 1

    # block-diagonal isolation, bitwise
    bank = QuaternionBank1x1(12, rng=np.random.default_rng(99))
    x = np.random.default_rng(100).normal(size=(1, 12, 4, 4)).astype(np.float32)
    full = bank(Tensor(x)).data
    for g in range(3):
        zeroed = x.copy()
        zeroed[:, 4 * g:4 * g + 4] = 0.0
        out = bank(Tensor(zeroed)).data
        assert (out[:, 4 * g:4 * g + 4] == 0.0).all()
        others = [gg for gg in range(3) if gg != g]
        for gg in others:
            npt.assert_array_equal(out[:, 4 * gg:4 * gg + 4],
                                   full[:, 4 * gg:4 * gg + 4])
    report(4, f"{checked} random configurations matched the Hamilton-expansion "
              "oracle; bank group isolation is bitwise")


def test_criterion_05_gradient_suite_every_layer_type():
    started = time.time()
    results = dict(run_grad_check_suite())
    elapsed = time.time() - started
    expected = {"conv2d", "batch_norm2d", "relu", "softmax", "max_pool", "linear",
                "cross_entropy", "quaternion_conv", "quaternion_bank", "axial_1d",
                "axial_pair", "quat_axial_bottleneck"}
    assert set(results) == expected
    worst = max(results.values())
    assert worst < GRAD_CHECK_THRESHOLD, results
    assert elapsed < 300, f"suite took {elapsed:.0f}s (limit 300s)"
    report(5, f"12 layer types, worst max-relative-error {worst:.2e} "
              f"in {elapsed:.0f}s")


def test_criterion_06_axial_attention_oracle_grid():
    worst = 0.0
    for span, channels, heads in itertools.product((2, 4, 7), (8, 16), (1, 2, 8)):
        rng = np.random.default_rng(span * 1000 + channels * 10 + heads)
        layer = AxialAttention1D(channels, span=span, heads=heads, rng=rng)
        layer.to_dtype(np.float64)
        x = rng.normal(size=(2, channels, span))
        got = layer(Tensor(x)).data
        want = dense_attention_1d(
            x, layer.w_q.data, layer.w_k.data, layer.w_v.data, layer.w_out.data,
            layer.r_q.data, layer.r_k.data, layer.r_v.data, heads)
        worst = max(worst, np.abs(got - want).max())
        # softmax rows of every head's attention matrix sum to one
        q = (layer.w_q.data @ x).reshape(2, heads, layer.dim, span)
        k = (layer.w_k.data @ x).reshape(2, heads, layer.dim, span)
        logits = np.einsum("bhdo,bhdp->bhop", q, k)
        rows = ad.softmax(Tensor(logits), axis=-1).data.sum(axis=-1)
        assert np.abs(rows - 1.0).max() <= 1e-6
    assert worst < 1e-6
    report(6, f"18 (L, C, heads) configurations within {worst:.2e} of the "
              "dense oracle; attention rows sum to 1")


def test_criterion_07_complexity_ratio():
    ratios = {}
    for s in (14, 28, 56):
        ratio = axial_flop_count(s, s, 128) / full_attention_flop_count(s, s, 128)
        assert ratio <= (s + s) / (s * s) * 1.05
        ratios[s] = ratio
    report(7, "axial/full MAC ratios " + ", ".join(
        f"{s}: {r:.5f} <= {(2 * s) / (s * s) * 1.05:.5f}" for s, r in ratios.items()))


class _DryRunModel(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(12, 3, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.fc(ad.reshape(x, (x.shape[0], 12)))


class _ArrayData:
    def __init__(self, n, seed):
        rng = np.random.default_rng(seed)
        self.images = rng.normal(size=(n, 3, 2, 2)).astype(np.float32)
        self.labels = rng.integers(0, 3, size=n).astype(np.int64)


def test_criterion_08_schedule_reproduction():
    config = TrainConfig()  # protocol defaults: warm 10 epochs to 0.1, cut at 20/40/70
    assert lr_schedule(config, 9) == pytest.approx(0.1)
    for epoch, expected in ((19, 0.1), (20, 0.01), (39, 0.01), (40, 0.001),
                            (69, 0.001), (70, 0.0001), (149, 0.0001)):
        assert lr_schedule(config, epoch) == pytest.approx(expected)

    history = train(_DryRunModel(), _ArrayData(10, 1), None,
                    replace(config, batch_size=10, seed=5))
    assert len(history) == 150
    csv_lrs = [float(line.split(",")[1])
               for line in history.to_csv().splitlines()[1:]]
    assert csv_lrs == [lr_schedule(config, e) for e in range(150)]
    report(8, "0.1 at epoch 9, factor-10 cuts after 20/40/70; 150-epoch "
              "dry-run CSV lr column matches the schedule exactly")


SMOKE_CONFIG = TrainConfig(epochs=50, batch_size=10, base_lr=0.03,
                           warmup_epochs=5, decay_epochs=(20, 35),
                           momentum=0.9, weight_decay=1e-4, seed=0)


def test_criterion_09_smoke_training():
    started = time.time()
    spec = ArchitectureSpec("quat_axial", (1, 1, 1, 1), width_scale=0.25,
                            num_classes=10, input_size=(3, 32, 32))
    model = build(spec, seed=0)
    data = synthetic_classification_dataset(10, 50, 32, seed=0)
    optimizer = SGDMomentum(model.named_parameters(), SMOKE_CONFIG.momentum,
                            SMOKE_CONFIG.weight_decay)

    # chunked continuation is bit-identical to one uninterrupted run because
    # shuffling is derived from (seed, epoch)
    history = train(model, data, None, replace(SMOKE_CONFIG, epochs=11),
                    optimizer=optimizer)
    records = list(history.records)
    assert records[10].train_loss < records[0].train_loss
    best = max(r.train_top1 for r in records)
    epoch = 11
    while best < 0.9 and epoch < SMOKE_CONFIG.epochs:
        chunk = train(model, data, None,
                      replace(SMOKE_CONFIG, epochs=min(epoch + 5, SMOKE_CONFIG.epochs)),
                      optimizer=optimizer, start_epoch=epoch)
        records.extend(chunk.records)
        best = max(best, max(r.train_top1 for r in chunk.records))
        epoch = records[-1].epoch + 1
    elapsed = time.time() - started
    assert best >= 0.9, f"train top-1 only reached {best:.3f} by epoch {epoch}"
    assert elapsed < 1800, f"took {elapsed:.0f}s (limit 1800s)"
    report(9, f"train top-1 {best:.3f} by epoch {records[-1].epoch} "
              f"({elapsed:.0f}s); loss@10 {records[10].train_loss:.3f} < "
              f"loss@1 {records[0].train_loss:.3f}")


def criterion_10_run(seed):
    data = synthetic_classification_dataset(10, 120, 16, seed=0)  # 1200 images
    return color_reconstruction_experiment(data, epochs=6, seed=seed)


def test_criterion_10_color_reconstruction_directional():
    # soft criterion: a failure here means "investigate", not auto-reject;
    # measured values are printed either way.  The seeds are independent runs.
    pairs = map_seeds(criterion_10_run, (0, 1, 2))
    quat_median = sorted(q for q, _ in pairs)[1]
    real_median = sorted(r for _, r in pairs)[1]
    message = (f"median held-out MSE quaternion {quat_median:.5f} vs real "
               f"{real_median:.5f} over 3 seeds "
               f"({', '.join(f'{q:.4f}/{r:.4f}' for q, r in pairs)})")
    assert quat_median < real_median, f"SOFT CRITERION FAILED: {message}"
    report(10, message)


def test_criterion_11_determinism_and_persistence(tmp_path):
    spec = ArchitectureSpec("quat_axial", (1, 1, 1, 1), width_scale=0.25,
                            num_classes=4, input_size=(3, 32, 32))
    config = TrainConfig(epochs=2, batch_size=8, base_lr=0.01, warmup_epochs=1,
                         decay_epochs=(), seed=21)
    data = synthetic_classification_dataset(4, 6, 32, seed=2)
    val = synthetic_classification_dataset(4, 4, 32, seed=3, split="val")

    def run():
        model = build(spec, seed=9)
        history = train(model, data, val, config)
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        npt.assert_array_equal(p1.data, p2.data, err_msg=n1)
    assert [(r.train_loss, r.val_top1) for r in h1.records] \
        == [(r.train_loss, r.val_top1) for r in h2.records]

    opt = SGDMomentum(m1.named_parameters(), config.momentum, config.weight_decay)
    path = tmp_path / "state.qx"
    checkpoint_save(path, m1, opt, epoch=2)
    loaded, loaded_opt, epoch = checkpoint_load(path)
    assert epoch == 2
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), loaded.named_parameters()):
        npt.assert_array_equal(p1.data, p2.data, err_msg=n1)
    for (b1, b2) in zip(m1.named_buffers(), loaded.named_buffers()):
        npt.assert_array_equal(b1[1], b2[1], err_msg=b1[0])

    # resumed run reaches the same state as an uninterrupted one
    straight = build(spec, seed=11)
    full = train(straight, data, val, config)
    part = build(spec, seed=11)
    part_opt = SGDMomentum(part.named_parameters(), config.momentum,
                           config.weight_decay)
    train(part, data, val, replace(config, epochs=1), out_dir=tmp_path,
          optimizer=part_opt)
    resumed, resumed_opt, start = checkpoint_load(tmp_path / "checkpoint.qx")
    tail = train(resumed, data, val, config, optimizer=resumed_opt,
                 start_epoch=start)
    for (n1, p1), (n2, p2) in zip(straight.named_parameters(),
                                  resumed.named_parameters()):
        npt.assert_array_equal(p1.data, p2.data, err_msg=n1)
    assert tail.records[-1].train_loss == full.records[-1].train_loss
    report(11, "fixed-seed runs bit-identical; checkpoint round-trip bitwise; "
               "resume matches the uninterrupted run exactly")
