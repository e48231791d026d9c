"""Training protocol: SGD with momentum, linear warmup + step-decay schedule,
coupled weight decay, per-epoch metrics, and checksummed binary checkpoints.

Shuffling and augmentation randomness are derived from (seed, epoch), never
from a shared stream, so a run resumed from any epoch checkpoint replays the
remaining epochs bit-exactly.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fields
from .autodiff import Tensor
from .axial import AxialAttention1D
from .errors import (
    CheckpointIntegrityError,
    ConfigurationError,
    ContractError,
    NumericsError,
    TrainingDivergedError,
)
from .zoo import SPEC_CASTS, Model, spec_from_fields, spec_to_text


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_flag(text: str) -> bool:
    try:
        return _FLAGS[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


@dataclass
class TrainConfig:
    epochs: int = 150
    batch_size: int = 10
    base_lr: float = 0.1
    warmup_epochs: int = 10
    decay_epochs: tuple = (20, 40, 70)
    decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 9e-5
    seed: int = 0
    decay_bn_params: bool = False  # include bn gamma/beta in weight decay

    def __post_init__(self):
        self.decay_epochs = tuple(int(e) for e in self.decay_epochs)
        if min((self.epochs, self.batch_size, self.warmup_epochs)) < 1:
            raise ConfigurationError(
                "epochs, batch_size, warmup_epochs must be >= 1, got "
                f"{self.epochs}, {self.batch_size}, {self.warmup_epochs}")
        if self.seed < 0:
            raise ConfigurationError(f"'seed' must be >= 0, got {self.seed}")
        for key in ("base_lr", "decay_factor", "momentum", "weight_decay"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(f"'{key}' must be finite, got {getattr(self, key)}")
        if min((self.base_lr, self.decay_factor)) <= 0:
            raise ConfigurationError("rates must be positive")
        for key in ("momentum", "weight_decay"):
            if getattr(self, key) < 0:
                raise ConfigurationError(f"'{key}' must be >= 0, got {getattr(self, key)}")
        if any(a >= b for a, b in zip(self.decay_epochs, self.decay_epochs[1:])):
            raise ConfigurationError(
                f"'decay_epochs' must be strictly increasing, got {self.decay_epochs}")
        if self.decay_epochs and self.warmup_epochs >= min(self.decay_epochs):
            raise ConfigurationError("warmup must end before the first decay epoch")

    def to_text(self) -> str:
        values = asdict(self)
        values["decay_epochs"] = ",".join(map(str, self.decay_epochs))
        return fields.write(values)

    @classmethod
    def from_text(cls, text: str) -> "TrainConfig":
        casts = {
            "epochs": int, "batch_size": int, "warmup_epochs": int, "seed": int,
            "base_lr": float, "decay_factor": float, "momentum": float,
            "weight_decay": float,
            "decay_epochs": lambda v: tuple(int(x) for x in v.split(",") if x),
            "decay_bn_params": _parse_flag,
        }
        return cls(**fields.read(text, casts, asdict(cls())))


def lr_schedule(config: TrainConfig, epoch: int) -> float:
    """Linear warmup to base_lr, then a factor cut after each decay epoch."""
    if not 0 <= epoch < config.epochs:
        raise ContractError(f"epoch {epoch} outside [0, {config.epochs})")
    if epoch < config.warmup_epochs:
        return config.base_lr * (epoch + 1) / config.warmup_epochs
    cuts = sum(1 for e in config.decay_epochs if e <= epoch)
    return config.base_lr * config.decay_factor ** cuts


# bytes of one array's chunk of the SGD update (32768 float32 values): the
# chunk's param, grad, velocity and scratch stay in a core's L2 cache through
# all six passes
SGD_CHUNK_BYTES = 128 * 1024


def _sgd_update(p, g, v, s, lr, momentum, weight_decay) -> None:
    """The six in-place passes of one update, ``s`` their scratch."""
    v *= momentum
    if weight_decay:
        np.multiply(weight_decay, p, out=s)
        s += g
        v += s
    else:
        v += g
    p -= np.multiply(lr, v, out=s)


def sgd_momentum_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float, weight_decay: float) -> None:
    """In-place update: v <- m*v + (grad + wd*param); param <- param - lr*v.

    An array larger than SGD_CHUNK_BYTES runs chunk by chunk, each chunk
    about SGD_CHUNK_BYTES of whole rows along axis 0; a smaller one runs
    whole, with no per-chunk slicing.  Every op is elementwise, so each
    value sees the same operations on the same operands either way.  Slices
    on axis 0 are views whatever the layout, so the update lands in
    ``param`` and ``velocity`` even when an array is not contiguous (a
    flattening reshape would copy one and lose the update).
    """
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ContractError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"velocity {velocity.shape}")
    if param.nbytes <= SGD_CHUNK_BYTES:
        _sgd_update(param, grad, velocity, np.empty_like(param), lr, momentum,
                    weight_decay)
        return
    rows = max(1, SGD_CHUNK_BYTES // param[0:1].nbytes)
    scratch = np.empty_like(param[:rows])  # one scratch chunk for every product
    for a in range(0, len(param), rows):
        p = param[a:a + rows]
        _sgd_update(p, grad[a:a + rows], velocity[a:a + rows], scratch[:len(p)],
                    lr, momentum, weight_decay)


class SGDMomentum:
    """Applies :func:`sgd_momentum_step` to every registered parameter."""

    def __init__(self, named_params, momentum: float = 0.9,
                 weight_decay: float = 0.0, decay_bn_params: bool = False):
        self._params = list(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.decay_bn_params = decay_bn_params
        self.velocity = {name: np.zeros_like(p.data) for name, p in self._params}

    def _decays(self, p) -> bool:
        return p.kind == "weight" or (self.decay_bn_params and p.kind == "bn")

    def step(self, lr: float):
        for name, p in self._params:
            if p.grad is None:
                continue
            wd = self.weight_decay if self._decays(p) else 0.0
            sgd_momentum_step(p.data, p.grad, self.velocity[name], lr,
                              self.momentum, wd)

    def zero_grad(self):
        for _, p in self._params:
            p.zero_grad()


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    train_top1: float
    val_top1: float
    seconds: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    CSV_HEADER = "epoch,lr,train_loss,train_top1,val_top1,seconds"

    def append(self, record: EpochRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def to_csv(self) -> str:
        rows = [self.CSV_HEADER]
        for r in self.records:  # repr: shortest exact float round-trip
            rows.append(f"{r.epoch},{r.lr!r},{r.train_loss!r},"
                        f"{r.train_top1!r},{r.val_top1!r},{r.seconds:.6f}")
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "TrainHistory":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != cls.CSV_HEADER:
            raise ContractError("malformed history CSV")
        history = cls()
        for ln in lines[1:]:
            try:
                e, lr, tl, tt, vt, sec = ln.split(",")
                history.append(EpochRecord(int(e), float(lr), float(tl),
                                           float(tt), float(vt), float(sec)))
            except ValueError:
                raise ContractError(f"malformed history CSV row {ln!r}") from None
        return history


def _batches(count: int, batch_size: int, rng: np.random.Generator | None):
    order = np.arange(count) if rng is None else rng.permutation(count)
    for start in range(0, count, batch_size):
        yield order[start:start + batch_size]


def top1(outputs: np.ndarray, labels) -> tuple[int, int]:
    """(argmax hits, count) of a batch of logits: summed over batches, the
    first over the second is top-1 accuracy."""
    return int((outputs.argmax(axis=1) == labels).sum()), len(labels)


def squared_error(outputs: np.ndarray, targets: np.ndarray) -> tuple[float, int]:
    """(sum of squared differences, element count) of a batch: summed over
    batches, the first over the second is the mean squared error."""
    d = outputs - targets
    return float((d * d).sum()), d.size


def evaluate(model: Model, data, metric=top1) -> float:
    """``metric`` over ``data`` with eval-mode batch norm, in batches of 64:
    the batches' totals summed over their counts summed (top-1 accuracy by
    default); deterministic.  ``data`` needs ``images`` and ``labels``, the
    targets ``metric`` reads.  Non-finite outputs or a non-finite total
    raise :class:`NumericsError` naming the batch."""
    if len(data.labels) == 0:
        raise ContractError("evaluate needs a non-empty dataset")
    was_training = model.training
    model.eval()
    total = count = 0
    try:
        with ad.no_grad():
            for idx in _batches(len(data.labels), 64, rng=None):
                outputs = model(Tensor(data.images[idx])).data
                batch_total, batch_count = metric(outputs, data.labels[idx])
                total += batch_total
                count += batch_count
                if not (np.isfinite(outputs).all() and math.isfinite(total)):
                    raise NumericsError(
                        f"non-finite outputs or total in the evaluation batch from sample {idx[0]}")
    finally:
        model.train(was_training)
    return total / count


def train(model: Model, train_data, val_data, config: TrainConfig,
          out_dir=None, augment=None, optimizer: SGDMomentum | None = None,
          start_epoch: int = 0, loss_fn=None, metric=top1) -> TrainHistory:
    """Run the epoch loop from ``start_epoch`` to ``config.epochs``.

    Each batch steps on ``loss_fn(outputs, labels)``, a one-element tensor
    (``autodiff.cross_entropy``, looked up at the call, by default), and
    adds ``metric(outputs, labels)`` into the epoch's ``train_top1`` as
    :func:`evaluate` does; ``val_top1`` is ``evaluate(model, val_data,
    metric)``, or 0 without ``val_data``.  A non-finite batch loss raises
    :class:`TrainingDivergedError` before its step.  ``augment``, when
    given, is called as ``augment(images, rng)`` on each training batch.

    After every epoch ``out_dir/history.csv`` (the earlier
    run's rows before ``start_epoch``, then this call's) and then
    ``out_dir/checkpoint.qx`` are written, so an interrupted run resumes
    with its history whole.  Returns this call's epochs only.  Fixed seed
    and thread count make runs and resumed runs bit-identical.
    """
    if optimizer is None:
        optimizer = SGDMomentum(model.named_parameters(), config.momentum,
                                config.weight_decay, config.decay_bn_params)
    history = TrainHistory()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        history_path = out_dir / "history.csv"
        kept = []
        if start_epoch and history_path.exists():
            # rows from start_epoch on are replayed, so they are not kept; a
            # byte that is not UTF-8 decodes to U+FFFD, which from_csv refuses
            text = history_path.read_text(errors="replace")
            kept = [r for r in TrainHistory.from_csv(text).records if r.epoch < start_epoch]
    loss_fn = loss_fn or ad.cross_entropy
    n = len(train_data.labels)
    model.train()
    for epoch in range(start_epoch, config.epochs):
        started = time.perf_counter()
        lr = lr_schedule(config, epoch)
        shuffle_rng = np.random.default_rng([config.seed, epoch])
        augment_rng = np.random.default_rng([config.seed, epoch, 1])
        loss_sum = 0.0
        total = count = 0
        for step, idx in enumerate(_batches(n, config.batch_size, shuffle_rng)):
            images, labels = train_data.images[idx], train_data.labels[idx]
            if augment is not None:
                images = augment(images, augment_rng)
            outputs = model(Tensor(images))
            loss = loss_fn(outputs, labels)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(epoch, step)
            optimizer.zero_grad()
            ad.backward(loss)
            optimizer.step(lr)
            loss_sum += value * len(idx)
            batch_total, batch_count = metric(outputs.data, labels)
            total += batch_total
            count += batch_count
        val_top1 = evaluate(model, val_data, metric) if val_data is not None else 0.0
        history.append(EpochRecord(epoch, lr, loss_sum / n, total / count,
                                   val_top1, time.perf_counter() - started))
        if out_dir is not None:
            # history first: a crash between the writes leaves one extra
            # row, which the resume from the older checkpoint replays
            with _replaced_atomically(history_path) as fh:
                fh.write(TrainHistory(kept + history.records).to_csv().encode())
            checkpoint_save(out_dir / "checkpoint.qx", model, optimizer, epoch + 1)
    return history


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, config blob, length-prefixed named
# tensors (name, dtype tag, shape, little-endian payload), 64-bit checksum
# ---------------------------------------------------------------------------

_MAGIC = b"QXCKPT\x00\x01"
_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 1, np.dtype(np.float64): 2,
               np.dtype(np.int64): 3}
_TAG_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i8")}


@contextmanager
def _replaced_atomically(path: Path):
    """A binary file handle on ``path.tmp``, fsynced and renamed over
    ``path`` on success, so a crash (or a failed write) leaves the previous
    file whole."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _checksum(payload) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def _write_tensor(emit, name: str, arr: np.ndarray):
    tag = _DTYPE_TAGS.get(arr.dtype)
    if tag is None:
        raise ContractError(f"cannot serialize dtype {arr.dtype} for {name!r}")
    encoded = name.encode()
    raw = np.ascontiguousarray(arr).astype(_TAG_DTYPES[tag], copy=False)
    emit(struct.pack("<H", len(encoded)) + encoded
         + struct.pack(f"<BB{arr.ndim}IQ", tag, arr.ndim, *arr.shape, raw.nbytes))
    emit(raw)


class _Reader:
    def __init__(self, payload: memoryview):
        self.payload = payload
        self.pos = 0

    def read(self, n: int) -> memoryview:
        if self.pos + n > len(self.payload):
            raise CheckpointIntegrityError("checkpoint truncated")
        out = self.payload[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.read(n), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointIntegrityError(f"{what} is not UTF-8") from None


def _read_tensor(reader: _Reader):
    (name_len,) = reader.unpack("<H")
    name = reader.text(name_len, "tensor name")
    tag, ndim = reader.unpack("<BB")
    if tag not in _TAG_DTYPES:
        raise CheckpointIntegrityError(f"unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]
    shape = reader.unpack(f"<{ndim}I")
    (nbytes,) = reader.unpack("<Q")
    if nbytes != math.prod(shape) * dtype.itemsize:
        raise CheckpointIntegrityError(
            f"tensor {name}: {nbytes} bytes do not fill shape {shape} of {dtype}")
    # the one copy: owned, aligned and writable, in native byte order
    arr = np.frombuffer(reader.read(nbytes), dtype=dtype).reshape(shape)
    return name, arr.astype(dtype.newbyteorder("="))


def checkpoint_save(path, model: Model, optimizer: SGDMomentum, epoch: int) -> None:
    """Write model parameters, buffers, and optimizer velocity with a checksum.

    Each header and tensor buffer goes straight to the checksum and the file;
    the payload is never assembled in memory.
    """
    blob = (spec_to_text(model.spec) + fields.write({
        "epoch": epoch, "momentum": optimizer.momentum,
        "weight_decay": optimizer.weight_decay,
        "decay_bn_params": optimizer.decay_bn_params})).encode()
    entries = [("param/" + name, p.data) for name, p in model.named_parameters()]
    entries += [("buffer/" + name, b) for name, b in model.named_buffers()]
    entries += [("vel/" + name, v) for name, v in optimizer.velocity.items()]
    digest = hashlib.blake2b(digest_size=8)
    with _replaced_atomically(Path(path)) as fh:
        def emit(chunk):
            digest.update(chunk)
            fh.write(chunk)

        emit(_MAGIC + struct.pack("<II", _VERSION, len(blob)) + blob
             + struct.pack("<I", len(entries)))
        for name, arr in entries:
            _write_tensor(emit, name, arr)
        fh.write(digest.digest())


def _read_checkpoint(path):
    """The metadata fields and the named tensors of a checksummed file."""
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if len(raw) < len(_MAGIC) + 12:
        raise CheckpointIntegrityError("checkpoint truncated")
    payload, digest = raw[:-8], raw[-8:]
    if _checksum(payload) != digest:
        raise CheckpointIntegrityError("checksum mismatch")
    reader = _Reader(payload)
    if reader.read(len(_MAGIC)) != _MAGIC:
        raise CheckpointIntegrityError("bad magic bytes")
    (version,) = reader.unpack("<I")
    if version != _VERSION:
        raise CheckpointIntegrityError(f"unsupported version {version}")
    (blob_len,) = reader.unpack("<I")
    meta = fields.read(reader.text(blob_len, "metadata blob"), {
        **SPEC_CASTS, "epoch": int, "momentum": float, "weight_decay": float,
        "decay_bn_params": _parse_flag}, {})
    (count,) = reader.unpack("<I")
    tensors = {}
    for _ in range(count):
        key, arr = _read_tensor(reader)
        if key in tensors:
            raise CheckpointIntegrityError(f"duplicate tensor {key}")
        tensors[key] = arr
    return meta, tensors


def _stack_quaternion_records(tensors: dict) -> None:
    """Stack older files' four records per quaternion layer, ``<layer>.w_r``
    to ``<layer>.w_k``, on axis 1 into the one ``<layer>.weight`` the layer
    holds now.  Only ``.w_r`` starts a group: an axial layer's key
    projection is also named ``w_k``."""
    for key in [k for k in tensors if k.endswith(".w_r")]:
        base = key[:-len("w_r")]
        parts = [tensors.pop(base + c, None) for c in ("w_r", "w_i", "w_j", "w_k")]
        if base + "weight" in tensors or any(
                p is None or p.shape != parts[0].shape for p in parts):
            raise CheckpointIntegrityError(f"records {base}w_r..w_k are not one weight")
        tensors[base + "weight"] = np.stack(parts, axis=1)


def _drop_relative_index_records(tensors: dict, model: Model) -> None:
    """Drop older files' ``buffer/<layer>.rel_index`` records, each of which
    must hold the index its attention layer now derives from the span."""
    for name, mod in model.named_modules():
        key = f"buffer/{name}.rel_index"
        if isinstance(mod, AxialAttention1D) and key in tensors:
            arr = tensors.pop(key)
            if arr.dtype != np.int64 or not np.array_equal(arr, ad.relative_index(mod.span)):
                raise CheckpointIntegrityError(f"tensor {key} is not the index of span {mod.span}")


def checkpoint_load(path):
    """Rebuild (model, optimizer, epoch) from a checkpoint file, bit-exactly.

    The model is allocated without drawing an initialisation, and each
    tensor is copied once, out of the file bytes, which are freed before
    the model is allocated.  Files that store a quaternion layer as four
    ``w_r``..``w_k`` records load too (see :func:`_stack_quaternion_records`),
    as do files with attention layers' position indexes.
    """
    meta, tensors = _read_checkpoint(path)
    _stack_quaternion_records(tensors)
    model = Model(spec_from_fields(meta), seed=None)
    _drop_relative_index_records(tensors, model)

    def take(key, like: np.ndarray):
        arr = tensors.pop(key, None)
        if arr is None or arr.shape != like.shape:
            raise CheckpointIntegrityError(f"missing or misshapen tensor {key}")
        if arr.dtype != like.dtype:
            raise CheckpointIntegrityError(
                f"tensor {key} is {arr.dtype}, the model needs {like.dtype}")
        return arr

    for name, p in model.named_parameters():
        p.data = take("param/" + name, p.data)
    for name, mod in model.named_modules():
        for bname, buf in list(mod._buffers.items()):
            full = f"{name}.{bname}" if name else bname
            mod.register_buffer(bname, take("buffer/" + full, buf))

    optimizer = SGDMomentum(model.named_parameters(), meta["momentum"],
                            meta["weight_decay"], meta["decay_bn_params"])
    for name, vel in optimizer.velocity.items():
        optimizer.velocity[name] = take("vel/" + name, vel)
    if tensors:
        raise CheckpointIntegrityError(f"unexpected tensor {min(tensors)}")
    return model, optimizer, meta["epoch"]
