import hashlib
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from qaxial import autodiff as ad
from qaxial import training
from qaxial.autodiff import Tensor
from qaxial.axial import AxialAttention1D
from qaxial.data import Dataset, synthetic_classification_dataset
from qaxial.errors import (
    CheckpointIntegrityError,
    ConfigurationError,
    ContractError,
    NumericsError,
    QaxialError,
    TrainingDivergedError,
)
from qaxial.nn import Linear, Module, Parameter
from qaxial.quaternion import QuaternionBank1x1, QuaternionConv2d
from qaxial.training import (
    SGDMomentum,
    TrainConfig,
    TrainHistory,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    lr_schedule,
    sgd_momentum_step,
    squared_error,
    top1,
    train,
)
from qaxial.zoo import ArchitectureSpec, build

from oracles import sgd_momentum_step_whole


# written by TrainConfig.to_text and checkpoint_save before they moved onto
# qaxial.fields; the on-disk format must not change
CONFIG_TEXT = """\
epochs = 50
batch_size = 10
base_lr = 0.1
warmup_epochs = 2
decay_epochs = 5,9
decay_factor = 0.1
momentum = 0.9
weight_decay = 9e-05
seed = 3
decay_bn_params = True
"""
CHECKPOINT_BLOB = """\
variant = axial
multipliers = 1,1,1,1
width_scale = 0.25
num_classes = 4
input_size = 3x32x32
heads = 8
epoch = 7
momentum = 0.9
weight_decay = 9e-05
decay_bn_params = True
"""
# sha256 of the file test_file_bytes_are_pinned writes; restated when the
# attention layers stopped writing rel_index records (the older writer's file
# with those records left out has this digest)
CHECKPOINT_SHA256 = "f5ee598ec0196598dd2aea44b7a927e3b99be0e9ad4f3ad0e6b1151d1803803f"


def reseal(path, payload):
    """Write ``payload`` with a valid checksum, so only the content checks see it."""
    path.write_bytes(bytes(payload) + training._checksum(bytes(payload)))


def replace_blob(path, blob: bytes):
    payload = path.read_bytes()[:-8]
    (old_len,) = struct.unpack_from("<I", payload, 12)
    reseal(path, payload[:12] + struct.pack("<I", len(blob)) + blob
           + payload[16 + old_len:])


def first_tensor_offsets(payload):
    """Offsets of the first tensor record's name and of its byte count."""
    (blob_len,) = struct.unpack_from("<I", payload, 12)
    name_at = 16 + blob_len + 4 + 2  # blob, tensor count, name length
    (name_len,) = struct.unpack_from("<H", payload, name_at - 2)
    ndim = payload[name_at + name_len + 1]
    return name_at, name_at + name_len + 2 + 4 * ndim


def training_state(model, optimizer):
    """Every array a checkpoint holds, by its checkpoint key (live references)."""
    state = {"param/" + name: p.data for name, p in model.named_parameters()}
    state.update(("buffer/" + name, b) for name, b in model.named_buffers())
    state.update(("vel/" + name, v) for name, v in optimizer.velocity.items())
    return state


def record_boundaries(payload):
    """Offset after each record of a checkpoint payload (checksum excluded):
    magic, version, blob, tensor count, then each tensor's header and data."""
    ends = [8, 12]
    (blob_len,) = struct.unpack_from("<I", payload, 12)
    ends += [16 + blob_len, 20 + blob_len]
    (count,) = struct.unpack_from("<I", payload, 16 + blob_len)
    at = ends[-1]
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", payload, at)
        ndim = payload[at + 2 + name_len + 1]
        at += 2 + name_len + 2 + 4 * ndim
        (nbytes,) = struct.unpack_from("<Q", payload, at)
        at += 8
        ends += [at, at + nbytes]
        at += nbytes
    assert at == len(payload)
    return ends


def quaternion_records_split(path, out, layers, drop=()):
    """Rewrite checkpoint ``path`` as ``out`` in the naming used while each
    quaternion layer held four tensors: the ``param/`` and ``vel/`` records
    ``<layer>.weight`` of ``layers`` become ``<layer>.w_r`` .. ``<layer>.w_k``,
    one per index of axis 1.  Records named in ``drop`` are left out."""
    payload = path.read_bytes()[:-8]
    (blob_len,) = struct.unpack_from("<I", payload, 12)
    records = []
    for key, arr in training._read_checkpoint(path)[1].items():
        kind, name = key.split("/", 1)
        layer = name.rsplit(".", 1)[0]
        if kind in ("param", "vel") and layer in layers:
            records += [(f"{kind}/{layer}.{c}", np.ascontiguousarray(arr[:, i]))
                        for i, c in enumerate(("w_r", "w_i", "w_j", "w_k"))]
        else:
            records.append((key, arr))
    records = [(key, arr) for key, arr in records if key not in drop]
    chunks = []
    for key, arr in records:
        training._write_tensor(chunks.append, key, arr)
    reseal(out, payload[:16 + blob_len] + struct.pack("<I", len(records))
           + b"".join(chunks))


def position_index_records(model):
    """The ``buffer/<layer>.rel_index`` records of the format in which each
    attention layer stored its position index, entry o*L + p = p - o + L - 1."""
    records = {}
    for name, mod in model.named_modules():
        if isinstance(mod, AxialAttention1D):
            pos = np.arange(mod.span)
            records[f"buffer/{name}.rel_index"] = \
                (pos[None, :] - pos[:, None] + mod.span - 1).reshape(-1)
    return records


def position_index_records_added(path, out, model, records):
    """Rewrite checkpoint ``path`` of ``model`` as ``out`` with ``records``
    added where that format wrote them: after the buffers of the modules
    before the layer each names, in module order.  A key that names no layer
    goes after the last buffer."""
    payload = path.read_bytes()[:-8]
    (blob_len,) = struct.unpack_from("<I", payload, 12)
    tensors = {**training._read_checkpoint(path)[1], **records}
    buffers = []
    for name, mod in model.named_modules():
        buffers += [f"buffer/{name}.{b}" for b in mod._buffers]
        buffers += [k for k in records if k == f"buffer/{name}.rel_index"]
    buffers += [k for k in records if k not in buffers]
    keys = [k for k in tensors if k.startswith("param/")] + buffers \
        + [k for k in tensors if k.startswith("vel/")]
    assert sorted(keys) == sorted(tensors)
    chunks = []
    for key in keys:
        training._write_tensor(chunks.append, key, tensors[key])
    reseal(out, payload[:16 + blob_len] + struct.pack("<I", len(keys))
           + b"".join(chunks))


def tiny_spec(**overrides):
    defaults = dict(block_multipliers=(1, 1, 1, 1), width_scale=0.25,
                    num_classes=4, input_size=(3, 32, 32))
    defaults.update(overrides)
    return ArchitectureSpec("axial", **defaults)


def tiny_dataset(n=24, classes=4, seed=0, split="train"):
    return synthetic_classification_dataset(classes, n // classes, 32,
                                            seed=seed, split=split)


class TestSchedule:
    def test_reaches_base_lr_at_end_of_warmup(self):
        assert lr_schedule(TrainConfig(), 9) == pytest.approx(0.1)

    def test_first_epoch_is_nonzero_fraction(self):
        assert lr_schedule(TrainConfig(), 0) == pytest.approx(0.01)

    def test_decay_steps(self):
        config = TrainConfig()
        assert lr_schedule(config, 25) == pytest.approx(0.01)
        assert lr_schedule(config, 45) == pytest.approx(0.001)
        assert lr_schedule(config, 80) == pytest.approx(0.0001)

    def test_out_of_range_epoch(self):
        with pytest.raises(ContractError):
            lr_schedule(TrainConfig(), 150)
        with pytest.raises(ContractError):
            lr_schedule(TrainConfig(), -1)

    def test_non_increasing_and_piecewise_constant_after_warmup(self):
        config = TrainConfig()
        values = [lr_schedule(config, e) for e in range(10, 150)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert len(set(values)) == 4  # plateaus between the three cuts

    def test_warmup_must_precede_decay(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(warmup_epochs=30)

    @pytest.mark.parametrize("raw,want", [("1", True), ("TRUE", True), ("yes", True),
                                          ("0", False), ("False", False), ("No", False)])
    def test_config_text_decay_bn_params_flags(self, raw, want):
        config = TrainConfig.from_text(f"decay_bn_params = {raw}")
        assert config.decay_bn_params is want

    def test_config_text_round_trip(self):
        config = TrainConfig(epochs=50, decay_epochs=(5, 9), warmup_epochs=2,
                             seed=3, decay_bn_params=True)
        assert TrainConfig.from_text(config.to_text()) == config

    @pytest.mark.parametrize("line", ["epochs = many", "decay_epochs = 5,x", "base_lr =",
                                      "decay_bn_params = on", "decay_bn_params = maybe"])
    def test_config_text_bad_value_names_key(self, line):
        with pytest.raises(ConfigurationError, match=line.split()[0]):
            TrainConfig.from_text(line)

    @pytest.mark.parametrize("line", ["base_lr = nan", "base_lr = inf", "decay_factor = nan",
                                      "momentum = inf", "weight_decay = nan",
                                      "momentum = -1", "weight_decay = -5",
                                      "decay_epochs = 50,20", "decay_epochs = 20,20",
                                      "seed = -1"])
    def test_config_text_out_of_range_value_names_key(self, line):
        with pytest.raises(ConfigurationError, match=f"'{line.split()[0]}'"):
            TrainConfig.from_text(line)

    def test_config_text_is_pinned(self):
        config = TrainConfig(epochs=50, decay_epochs=(5, 9), warmup_epochs=2,
                             seed=3, decay_bn_params=True)
        assert config.to_text() == CONFIG_TEXT
        assert TrainConfig(decay_epochs=()).to_text().splitlines()[4] == "decay_epochs = "

    def test_config_text_repeated_key_names_key(self):
        with pytest.raises(ConfigurationError, match="'epochs'"):
            TrainConfig.from_text("epochs = 5\n# again\nepochs = 6\n")


class TestSgdStep:
    def test_zero_momentum_is_plain_gradient_descent(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.5])
        v = np.zeros(2)
        sgd_momentum_step(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        npt.assert_allclose(p, [0.95, -2.05])

    def test_constant_gradient_velocity_geometric_series(self):
        m, g, steps = 0.9, 1.0, 12
        v = np.zeros(1)
        p = np.zeros(1)
        for _ in range(steps):
            sgd_momentum_step(p, np.array([g]), v, lr=0.0, momentum=m, weight_decay=0.0)
        npt.assert_allclose(v[0], g * (1 - m ** steps) / (1 - m), rtol=1e-12)

    def test_quadratic_converges(self):
        p = np.array([1.0])
        v = np.zeros(1)
        for _ in range(200):
            sgd_momentum_step(p, p.copy(), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert abs(p[0]) < 1e-3

    def test_coupled_weight_decay_closed_form(self):
        p0, g0, lr, wd = 2.0, 0.3, 0.05, 0.01
        p = np.array([p0])
        v = np.zeros(1)
        sgd_momentum_step(p, np.array([g0]), v, lr=lr, momentum=0.0, weight_decay=wd)
        npt.assert_allclose(p[0], p0 * (1 - lr * wd) - lr * g0, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9, 0.0)

    # sha256 of the parameters and velocities after two float32 steps, taken
    # when the update built weight_decay*param, grad + ... and lr*velocity as
    # three new arrays
    @pytest.mark.parametrize("weight_decay,digest", [
        (0.0, "ef173ba93dabb64b8488b935ffe718a5546abdcf933c2630532511c356542c7e"),
        (1e-4, "f9aef2d837af818d700af252faabc4f551721cf3ded9e5ee2210049f6f32fd6a"),
    ])
    def test_update_is_pinned(self, weight_decay, digest):
        rng = np.random.default_rng(60)
        p, g, v = (rng.normal(size=(64, 33)).astype(np.float32) for _ in range(3))
        for lr in (0.1, 0.03):
            sgd_momentum_step(p, g, v, lr=lr, momentum=0.9, weight_decay=weight_decay)
        h = hashlib.sha256()
        for a in (p, v):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    # sha256 of the parameters and velocities after two float32 steps on
    # arrays of three chunks and a remainder each, two of them with a
    # transposed (non-contiguous) gradient; taken when the update ran as six
    # passes over whole arrays
    @pytest.mark.parametrize("weight_decay,digest", [
        (0.0, "378961e9476a2cf9a22ad0274787f5cfa728618fbec9d830425f20ac82e98f51"),
        (1e-4, "9a277147148bbeec099a6719a85d4435cd982057d43e2f56a912350348a80b25"),
    ])
    def test_chunked_update_is_pinned(self, weight_decay, digest):
        rng = np.random.default_rng(61)
        h = hashlib.sha256()
        for shape in ((3 * 32768 + 5,), (350, 300), (50, 4, 64, 3, 3)):
            p, v = (rng.normal(size=shape).astype(np.float32) for _ in range(2))
            g = rng.normal(size=shape[::-1]).astype(np.float32).T
            if len(shape) == 1:
                g = np.ascontiguousarray(g)
            else:
                assert not g.flags.c_contiguous
            rows = training.SGD_CHUNK_BYTES // p[0:1].nbytes
            assert len(p) // rows == 3 and len(p) % rows, "three chunks and a remainder"
            p_whole, g_whole, v_whole = p.copy(), g.copy(), v.copy()
            for lr in (0.1, 0.03):
                sgd_momentum_step(p, g, v, lr=lr, momentum=0.9, weight_decay=weight_decay)
                sgd_momentum_step_whole(p_whole, g_whole, v_whole, lr, 0.9, weight_decay)
            assert p.tobytes() == p_whole.tobytes() and v.tobytes() == v_whole.tobytes()
            h.update(p.tobytes())
            h.update(v.tobytes())
        assert h.hexdigest() == digest

    def test_update_reaches_non_contiguous_arrays(self):
        # chunks are axis-0 slices, which are views of any layout, so an
        # update of a transposed param and velocity lands in them
        rng = np.random.default_rng(62)
        p, g, v = (rng.normal(size=(300, 700)).astype(np.float32).T for _ in range(3))
        want = [a.copy() for a in (p, g, v)]
        sgd_momentum_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=1e-4)
        sgd_momentum_step_whole(*want, 0.1, 0.9, 1e-4)
        assert p.tobytes() == want[0].tobytes() and v.tobytes() == want[2].tobytes()
        # under one chunk the arrays update whole, in place
        p, g, v = (rng.normal(size=(30, 70)).astype(np.float32).T for _ in range(3))
        assert p.nbytes <= training.SGD_CHUNK_BYTES
        want = [a.copy() for a in (p, g, v)]
        sgd_momentum_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=1e-4)
        sgd_momentum_step_whole(*want, 0.1, 0.9, 1e-4)
        assert p.tobytes() == want[0].tobytes() and v.tobytes() == want[2].tobytes()
        for shape in ((), (0, 3), (3, 0)):
            p, g = np.ones(shape, np.float32), np.ones(shape, np.float32)
            v = np.zeros(shape, np.float32)
            sgd_momentum_step(p, g, v, lr=0.5, momentum=0.9, weight_decay=0.0)
            npt.assert_array_equal(p, 0.5)

    def test_bn_params_excluded_unless_flagged(self):
        gamma = Parameter(np.ones(3), kind="bn")
        gamma.grad = np.zeros(3)
        for flag, expect in ((False, 1.0), (True, 1.0 - 0.1 * 0.5)):
            gamma.data = np.ones(3)
            opt = SGDMomentum([("gamma", gamma)], momentum=0.0,
                              weight_decay=0.5, decay_bn_params=flag)
            opt.step(lr=0.1)
            npt.assert_allclose(gamma.data, expect, rtol=1e-6)


class SmoothModel(Module):
    """Tiny smooth classifier (softplus, no relu kinks) for descent tests."""

    def __init__(self, features, classes, seed=0):
        super().__init__()
        self.fc1 = Linear(features, 8, rng=np.random.default_rng(seed))
        self.fc2 = Linear(8, classes, rng=np.random.default_rng(seed + 1))

    def forward(self, x):
        n = x.shape[0]
        flat = ad.reshape(x, (n, int(np.prod(x.shape[1:]))))
        return self.fc2(ad.softplus(self.fc1(flat)))


class TestTrainLoop:
    def test_one_epoch_one_step(self):
        data = tiny_dataset(n=8, classes=4)
        model = build(tiny_spec(), seed=0)
        config = TrainConfig(epochs=1, batch_size=8, base_lr=0.01,
                             warmup_epochs=1, decay_epochs=(), seed=1)
        counting = SGDMomentum(model.named_parameters(), config.momentum,
                               config.weight_decay)
        steps = {"n": 0}
        original = counting.step
        counting.step = lambda lr: (steps.__setitem__("n", steps["n"] + 1),
                                    original(lr))[1]
        history = train(model, data, None, config, optimizer=counting)
        assert steps["n"] == 1
        assert len(history) == 1

    def test_history_lr_matches_schedule(self):
        data = tiny_dataset(n=8, classes=4)
        model = build(tiny_spec(), seed=0)
        config = TrainConfig(epochs=6, batch_size=8, base_lr=0.02,
                             warmup_epochs=2, decay_epochs=(4,), seed=1)
        history = train(model, data, None, config)
        for record in history.records:
            assert record.lr == pytest.approx(lr_schedule(config, record.epoch))

    def test_fixed_batch_loss_decreases_on_smooth_model(self):
        rng = np.random.default_rng(5)
        images = rng.normal(size=(16, 1, 2, 2)).astype(np.float32)
        labels = (rng.random(16) < 0.5).astype(np.int64)
        model = SmoothModel(4, 2, seed=2)
        opt = SGDMomentum(model.named_parameters(), momentum=0.0, weight_decay=0.0)
        losses = []
        for _ in range(11):
            logits = model(Tensor(images))
            loss = ad.cross_entropy(logits, labels)
            losses.append(float(loss.data))
            opt.zero_grad()
            ad.backward(loss)
            opt.step(lr=0.05)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_determinism_bitwise(self):
        config = TrainConfig(epochs=2, batch_size=6, base_lr=0.01,
                             warmup_epochs=1, decay_epochs=(), seed=9)
        results = []
        for _ in range(2):
            data = tiny_dataset(n=12, classes=4, seed=3)
            val = tiny_dataset(n=8, classes=4, seed=4, split="val")
            model = build(tiny_spec(), seed=7)
            history = train(model, data, val, config)
            results.append((history, {n: p.data.copy()
                                      for n, p in model.named_parameters()}))
        (h1, p1), (h2, p2) = results
        for r1, r2 in zip(h1.records, h2.records):
            assert (r1.epoch, r1.lr, r1.train_loss, r1.train_top1, r1.val_top1) \
                == (r2.epoch, r2.lr, r2.train_loss, r2.train_top1, r2.val_top1)
        for name in p1:
            npt.assert_array_equal(p1[name], p2[name])

    def test_nan_loss_aborts_with_location(self):
        data = tiny_dataset(n=8, classes=4)
        model = build(tiny_spec(), seed=0)
        model.classifier.weight.data[...] = np.nan
        config = TrainConfig(epochs=1, batch_size=8, warmup_epochs=1,
                             decay_epochs=(), seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, data, None, config)
        assert err.value.epoch == 0 and err.value.step == 0

    def test_default_loss_is_looked_up_at_each_call(self, monkeypatch):
        # perfbench's step clock ends each forward by replacing
        # autodiff.cross_entropy, so train must call the module's current one
        original = ad.cross_entropy
        batches = []

        def counting(logits, labels):
            batches.append(len(labels))
            return original(logits, labels)

        monkeypatch.setattr(ad, "cross_entropy", counting)
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(20, 1, 2, 2)).astype(np.float32),
                       np.arange(20) % 2, 2)
        config = TrainConfig(epochs=2, batch_size=8, base_lr=0.01,
                             warmup_epochs=1, decay_epochs=(), seed=1)
        train(SmoothModel(4, 2), data, data, config)
        assert batches == [8, 8, 4] * 2  # once a step, never in evaluate

    def test_loss_fn_and_metric_replace_cross_entropy_and_top1(self, monkeypatch):
        def refuse(logits, labels):
            raise AssertionError("cross_entropy called")

        def mse(outputs, targets):
            diff = outputs - Tensor(targets)
            return (diff * diff).mean()

        monkeypatch.setattr(ad, "cross_entropy", refuse)
        rng = np.random.default_rng(4)
        data = SimpleNamespace(images=rng.normal(size=(12, 1, 2, 2)).astype(np.float32),
                               labels=rng.normal(size=(12, 3)).astype(np.float32))
        model = SmoothModel(4, 3)
        config = TrainConfig(epochs=2, batch_size=5, base_lr=0.01,
                             warmup_epochs=1, decay_epochs=(), seed=2)
        history = train(model, data, data, config, loss_fn=mse, metric=squared_error)
        assert history[-1].val_top1 == evaluate(model, data, squared_error)
        assert 0 < history[-1].train_top1 < history[0].train_top1

    def test_history_csv_round_trip(self):
        history = TrainHistory()
        from qaxial.training import EpochRecord
        history.append(EpochRecord(0, 0.01, 2.3, 0.25, 0.5, 1.25))
        history.append(EpochRecord(1, 0.02, 1.9, 0.3, 0.55, 1.5))
        parsed = TrainHistory.from_csv(history.to_csv())
        assert parsed.records == history.records

    @pytest.mark.parametrize("row", ["1,0.02,1.9,0.3,0.55", "1,0.02,1.9,0.3,0.55,1.5,9",
                                     "1,0.02,fast,0.3,0.55,1.5", "one,0.02,1.9,0.3,0.55,1.5"])
    def test_history_csv_malformed_row_names_it(self, row):
        text = TrainHistory.CSV_HEADER + "\n0,0.01,2.3,0.25,0.5,1.25\n" + row + "\n"
        with pytest.raises(ContractError, match=re.escape(repr(row))):
            TrainHistory.from_csv(text)


class TestEvaluate:
    def test_constant_logits_favoring_class_zero(self):
        model = build(tiny_spec(), seed=0)
        model.classifier.weight.data[...] = 0.0
        model.classifier.bias.data[...] = np.array([1.0, 0, 0, 0], dtype=np.float32)
        data = tiny_dataset(n=8, classes=4)
        data.labels[...] = 0
        assert evaluate(model, data) == 1.0

    def test_random_logits_on_balanced_thousand_classes(self):
        rng = np.random.default_rng(0)

        class RandomLogits(Module):
            def forward(self, x):
                return Tensor(rng.normal(size=(x.shape[0], 1000)).astype(np.float32))

        images = np.zeros((3000, 1, 1, 1), dtype=np.float32)
        labels = np.arange(3000, dtype=np.int64) % 1000
        data = Dataset(images, labels, 1000)
        acc = evaluate(RandomLogits(), data)
        sigma = np.sqrt(0.001 * 0.999 / 3000)
        assert abs(acc - 0.001) <= 3 * sigma

    def test_invariant_under_order_permutation(self):
        model = build(tiny_spec(), seed=1)
        data = tiny_dataset(n=12, classes=4, seed=5)
        perm = np.random.default_rng(6).permutation(12)
        shuffled = data.subset(perm)
        assert evaluate(model, data) == evaluate(model, shuffled)

    def test_empty_dataset_rejected(self):
        model = build(tiny_spec(), seed=0)
        with pytest.raises(ContractError):
            evaluate(model, Dataset(np.zeros((0, 3, 32, 32)), np.zeros(0), 4))

    def test_nan_classifier_weight_raises_not_scores(self):
        # argmax over NaN logits picks class 0, which scores 0.5 here
        model = build(ArchitectureSpec("resnet", (1, 1, 1, 1), num_classes=2,
                                       input_size=(3, 32, 32)), seed=0)
        model.classifier.weight.data[0, 0] = np.nan
        with pytest.raises(NumericsError, match="from sample 0"):
            evaluate(model, tiny_dataset(n=8, classes=2))

    def test_non_finite_logits_name_the_batch(self):
        class PixelLogits(Module):
            def forward(self, x):
                return Tensor(x.data.reshape(x.shape[0], -1)[:, :2].copy())

        images = np.zeros((100, 1, 1, 2), dtype=np.float32)
        images[70, 0, 0, 1] = np.inf
        data = Dataset(images, np.arange(100) % 2, 2)
        with pytest.raises(NumericsError, match="from sample 64$"):  # batches of 64
            evaluate(PixelLogits(), data)


class Identity(Module):
    def forward(self, x):
        return x


def regression_data(images, seed=0):
    """Images whose targets have their shape, as the colour runs use."""
    rng = np.random.default_rng(seed)
    return SimpleNamespace(images=images,
                           labels=rng.normal(size=images.shape).astype(images.dtype))


class TestMetrics:
    def test_batch_totals_and_counts(self):
        logits = np.array([[0.0, 1.0], [2.0, 1.0], [0.0, 3.0]])
        assert top1(logits, np.array([1, 1, 1])) == (2, 3)
        assert squared_error(np.array([[1.0, 2.0]]), np.array([[0.0, 4.0]])) == (5.0, 2)

    def test_squared_error_is_the_mean_over_every_element(self):
        rng = np.random.default_rng(1)
        data = regression_data(rng.normal(size=(100, 3, 2, 2)), seed=2)
        want = np.mean((data.images - data.labels) ** 2)
        assert evaluate(Identity(), data, squared_error) == pytest.approx(want, rel=1e-12)

    def test_overflowing_squared_error_total_raises(self):
        # finite outputs whose squared differences overflow float32
        data = regression_data(np.full((70, 1, 1, 2), 1e30, dtype=np.float32))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericsError, match="from sample 0$"):
            evaluate(Identity(), data, squared_error)


class TestCheckpoint:
    def _trained(self, tmp_path, epochs=1):
        data = tiny_dataset(n=8, classes=4, seed=1)
        model = build(tiny_spec(), seed=3)
        config = TrainConfig(epochs=epochs, batch_size=8, base_lr=0.01,
                             warmup_epochs=1, decay_epochs=(), seed=2)
        opt = SGDMomentum(model.named_parameters(), config.momentum,
                          config.weight_decay)
        train(model, data, None, config, optimizer=opt)
        return model, opt, config, data

    def test_round_trip_bitwise(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        loaded, loaded_opt, epoch = checkpoint_load(path)
        assert epoch == 1
        for (name, p), (lname, lp) in zip(model.named_parameters(),
                                          loaded.named_parameters()):
            assert name == lname
            npt.assert_array_equal(p.data, lp.data)
        for (name, b), (lname, lb) in zip(model.named_buffers(),
                                          loaded.named_buffers()):
            assert name == lname
            npt.assert_array_equal(b, lb)
        for name in opt.velocity:
            npt.assert_array_equal(opt.velocity[name], loaded_opt.velocity[name])

    def test_flipping_any_byte_is_detected(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        raw = bytearray(path.read_bytes())
        for offset in (5, len(raw) // 2, len(raw) - 3):
            corrupt = bytearray(raw)
            corrupt[offset] ^= 0x40
            bad = tmp_path / "bad.qx"
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(CheckpointIntegrityError):
                checkpoint_load(bad)

    def test_truncation_is_detected(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        bad = tmp_path / "short.qx"
        bad.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointIntegrityError):
            checkpoint_load(bad)

    def test_failed_replace_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model, opt, _, _ = self._trained(tmp_path)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        before = path.read_bytes()
        saved = [p.data.copy() for _, p in model.named_parameters()]
        for _, p in model.named_parameters():
            p.data += 1.0

        written = []

        def crash(src, dst):
            written.append(Path(src).stat().st_size)
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(training.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            checkpoint_save(path, model, opt, epoch=2)
        monkeypatch.undo()
        assert written == [len(before)]
        assert path.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["model.qx"]
        loaded, _, epoch = checkpoint_load(path)
        assert epoch == 1
        for want, (name, p) in zip(saved, loaded.named_parameters()):
            npt.assert_array_equal(p.data, want, err_msg=name)

    def test_misshapen_buffer_is_rejected(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        name, mod = next((n, m) for n, m in model.named_modules() if m._buffers)
        bname, buf = next(iter(mod._buffers.items()))
        mod.register_buffer(bname, np.zeros(buf.size + 1, dtype=buf.dtype))
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        key = "buffer/" + (f"{name}.{bname}" if name else bname)
        with pytest.raises(CheckpointIntegrityError, match=re.escape(key)):
            checkpoint_load(path)

    def test_misshapen_velocity_is_rejected(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        name, vel = next(iter(opt.velocity.items()))
        opt.velocity[name] = np.zeros(vel.shape + (2,), dtype=vel.dtype)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        with pytest.raises(CheckpointIntegrityError, match=re.escape("vel/" + name)):
            checkpoint_load(path)

    def test_unconsumed_entry_is_rejected(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        opt.velocity["ghost.weight"] = np.zeros(3, dtype=np.float32)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        with pytest.raises(CheckpointIntegrityError, match="vel/ghost.weight"):
            checkpoint_load(path)

    def test_duplicate_entry_is_rejected(self, tmp_path, monkeypatch):
        model, opt, _, _ = self._trained(tmp_path)
        params = list(model.named_parameters())
        monkeypatch.setattr(model, "named_parameters", lambda: params + params[:1])
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        with pytest.raises(CheckpointIntegrityError,
                           match=re.escape("duplicate tensor param/" + params[0][0])):
            checkpoint_load(path)

    def test_wrong_dtype_is_rejected(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        model.stem_conv.weight.data = model.stem_conv.weight.data.astype(np.int64)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        with pytest.raises(CheckpointIntegrityError,
                           match=re.escape("param/stem_conv.weight is int64")):
            checkpoint_load(path)

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        model, opt, _, _ = self._trained(tmp_path)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)

        def no_rng(*args, **kwargs):
            raise AssertionError("checkpoint_load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, loaded_opt, _ = checkpoint_load(path)
        monkeypatch.undo()
        ours = training_state(model, opt)
        theirs = training_state(loaded, loaded_opt)
        assert ours.keys() == theirs.keys()
        for key, arr in ours.items():
            assert theirs[key].dtype == arr.dtype, key
            assert theirs[key].tobytes() == arr.tobytes(), key
            assert theirs[key].flags.writeable and theirs[key].flags.owndata, key

    def test_truncation_at_every_record_boundary(self, tmp_path):
        path = self._saved(tmp_path)
        payload = path.read_bytes()[:-8]
        ends = record_boundaries(payload)
        bad = tmp_path / "short.qx"
        # each prefix is sealed from one running hash, not hashed from its start
        running, done = hashlib.blake2b(digest_size=8), 0
        for end in [0] + ends[:-1]:
            running.update(payload[done:end])
            done = end
            bad.write_bytes(payload[:end] + running.copy().digest())
            with pytest.raises(CheckpointIntegrityError, match="truncated"):
                checkpoint_load(bad)
        assert running.digest() == training._checksum(payload[:done])

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        before = path.read_bytes()
        # buffers are written after every parameter, so this fails mid-stream
        name, mod = next((n, m) for n, m in model.named_modules() if m._buffers)
        bname, buf = next(iter(mod._buffers.items()))
        mod.register_buffer(bname, buf.astype(np.float16))
        with pytest.raises(ContractError, match="float16"):
            checkpoint_save(path, model, opt, epoch=2)
        assert path.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["model.qx"]

    def test_file_bytes_are_pinned(self, tmp_path):
        model = build(tiny_spec(), seed=0)
        opt = SGDMomentum(model.named_parameters(), 0.9, 9e-5)
        # values from integer arithmetic alone, so the digest pins the format
        for i, arr in enumerate(training_state(model, opt).values()):
            if arr.dtype.kind == "f":
                arr[...] = ((np.arange(arr.size) % 13 - 6) / 8 + i).reshape(arr.shape)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=3)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256

    def _saved(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        opt.decay_bn_params = True
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=7)
        return path

    def test_blob_is_pinned_and_loads(self, tmp_path):
        path = self._saved(tmp_path)
        payload = path.read_bytes()
        assert struct.unpack_from("<I", payload, 12) == (len(CHECKPOINT_BLOB),)
        assert payload[16:16 + len(CHECKPOINT_BLOB)].decode() == CHECKPOINT_BLOB
        model, opt, epoch = checkpoint_load(path)
        assert model.spec == tiny_spec() and epoch == 7
        assert (opt.momentum, opt.weight_decay, opt.decay_bn_params) == (0.9, 9e-5, True)

    @pytest.mark.parametrize("old,new,key", [("epoch = 7\n", "", "epoch"),
                                             ("momentum = 0.9", "momentum = fast", "momentum"),
                                             ("heads = 8\n", "heads = 8\nheads = 4\n", "heads"),
                                             ("epoch = 7", "colour = red", "colour")])
    def test_bad_blob_names_key(self, tmp_path, old, new, key):
        path = self._saved(tmp_path)
        replace_blob(path, CHECKPOINT_BLOB.replace(old, new).encode())
        with pytest.raises(QaxialError, match=f"'{key}'"):
            checkpoint_load(path)

    def test_payload_must_fill_its_shape(self, tmp_path):
        path = self._saved(tmp_path)
        payload = bytearray(path.read_bytes()[:-8])
        _, count_at = first_tensor_offsets(payload)
        (nbytes,) = struct.unpack_from("<Q", payload, count_at)
        struct.pack_into("<Q", payload, count_at, nbytes - 4)  # one float32 short
        del payload[count_at + 8 + nbytes - 4:count_at + 8 + nbytes]
        reseal(path, payload)
        with pytest.raises(CheckpointIntegrityError, match="do not fill shape"):
            checkpoint_load(path)

    @pytest.mark.parametrize("where", ["tensor name", "metadata blob"])
    def test_non_utf8_text_is_rejected(self, tmp_path, where):
        path = self._saved(tmp_path)
        if where == "metadata blob":
            replace_blob(path, b"\xff" + CHECKPOINT_BLOB.encode())
        else:
            payload = bytearray(path.read_bytes()[:-8])
            payload[first_tensor_offsets(payload)[0]] = 0xFF
            reseal(path, payload)
        with pytest.raises(CheckpointIntegrityError, match=f"{where} is not UTF-8"):
            checkpoint_load(path)

    def _quaternion_saved(self, tmp_path, variant):
        extra = {"width_scale": 0.25} if variant == "quat_axial" else {}
        model = build(ArchitectureSpec(variant, (1, 1, 1, 1), num_classes=4,
                                       input_size=(3, 32, 32), **extra), seed=0)
        opt = SGDMomentum(model.named_parameters(), 0.9, 9e-5)
        for i, arr in enumerate(training_state(model, opt).values()):
            arr[...] = ((np.arange(arr.size) % 13 - 6) / 8 + i).reshape(arr.shape)
        path = tmp_path / "direct.qx"
        checkpoint_save(path, model, opt, epoch=3)
        layers = {name for name, mod in model.named_modules()
                  if isinstance(mod, (QuaternionConv2d, QuaternionBank1x1))}
        return path, layers

    @pytest.mark.parametrize("variant", ["quat_axial", "quat_resnet"])
    def test_four_component_records_load_bit_for_bit(self, tmp_path, variant):
        direct, layers = self._quaternion_saved(tmp_path, variant)
        legacy = tmp_path / "legacy.qx"
        quaternion_records_split(direct, legacy, layers)
        keys = training._read_checkpoint(legacy)[1]
        assert sum(key.endswith(".w_j") for key in keys) == 2 * len(layers) > 0
        again = tmp_path / "again.qx"
        checkpoint_save(again, *checkpoint_load(legacy))
        assert again.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("kind", ["param", "vel"])
    @pytest.mark.parametrize("component", ["w_r", "w_i", "w_j", "w_k"])
    def test_missing_component_record_is_rejected(self, tmp_path, kind, component):
        direct, layers = self._quaternion_saved(tmp_path, "quat_axial")
        legacy = tmp_path / "legacy.qx"
        quaternion_records_split(direct, legacy, layers,
                                 drop={f"{kind}/{min(layers)}.{component}"})
        with pytest.raises(CheckpointIntegrityError, match=re.escape(min(layers))):
            checkpoint_load(legacy)

    def test_position_index_records_load_bit_for_bit(self, tmp_path):
        model, opt, _, _ = self._trained(tmp_path)
        direct = tmp_path / "direct.qx"
        checkpoint_save(direct, model, opt, epoch=1)
        legacy = tmp_path / "legacy.qx"
        records = position_index_records(model)
        assert len(records) == 8
        position_index_records_added(direct, legacy, model, records)
        loaded, loaded_opt, epoch = checkpoint_load(legacy)
        assert epoch == 1
        ours = training_state(model, opt)
        theirs = training_state(loaded, loaded_opt)
        assert ours.keys() == theirs.keys()
        for key, arr in ours.items():
            assert theirs[key].dtype == arr.dtype, key
            assert theirs[key].tobytes() == arr.tobytes(), key
        again = tmp_path / "again.qx"
        checkpoint_save(again, loaded, loaded_opt, epoch)
        assert again.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("case", ["changed", "wrong_dtype", "no_layer"])
    def test_bad_position_index_record_is_rejected(self, tmp_path, case):
        model, opt, _, _ = self._trained(tmp_path)
        path = tmp_path / "model.qx"
        checkpoint_save(path, model, opt, epoch=1)
        records = position_index_records(model)
        key = min(records)
        if case == "changed":
            records[key][5] += 1
            error = key
        elif case == "wrong_dtype":
            records[key] = records[key].astype(np.float32)
            error = key
        else:
            records = {"buffer/stem_conv.rel_index": records[key]}
            error = "unexpected tensor buffer/stem_conv.rel_index"
        position_index_records_added(path, path, model, records)
        with pytest.raises(CheckpointIntegrityError, match=re.escape(error)):
            checkpoint_load(path)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        config = TrainConfig(epochs=2, batch_size=6, base_lr=0.01,
                             warmup_epochs=1, decay_epochs=(), seed=11)
        data = tiny_dataset(n=12, classes=4, seed=8)
        val = tiny_dataset(n=8, classes=4, seed=9, split="val")

        straight = build(tiny_spec(), seed=5)
        full_history = train(straight, data, val, config)

        # run only epoch 0, then resume from its checkpoint
        first = build(tiny_spec(), seed=5)
        opt = SGDMomentum(first.named_parameters(), config.momentum,
                          config.weight_decay)
        one_epoch = TrainConfig(**{**config.__dict__, "epochs": 1})
        train(first, data, val, one_epoch, out_dir=tmp_path, optimizer=opt)
        loaded, loaded_opt, start = checkpoint_load(tmp_path / "checkpoint.qx")
        assert start == 1
        tail = train(loaded, data, val, config, optimizer=loaded_opt,
                     start_epoch=start)
        assert tail.records[0].lr == pytest.approx(lr_schedule(config, 1))
        for (n1, p1), (n2, p2) in zip(straight.named_parameters(),
                                      loaded.named_parameters()):
            npt.assert_array_equal(p1.data, p2.data, err_msg=n1)
        assert tail.records[-1].train_loss == full_history.records[-1].train_loss
