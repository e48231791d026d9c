"""Dataset ingestion: CIFAR-10 binary batches, PPM images, the per-class
manifest subsampler, a synthetic pattern dataset for smoke training, and the
training-split augmentation policy.

Only uncompressed formats are decoded (CIFAR binary records, P6 PPM); no
image-codec dependencies.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataFormatError

CIFAR_RECORD_BYTES = 1 + 3 * 32 * 32


@dataclass
class Dataset:
    """In-memory image classification split: [N,C,H,W] floats in [0,1]."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    split: str = "train"

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise DataFormatError("images must be [N,C,H,W] with matching labels")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise DataFormatError(f"labels outside [0, {self.class_count})")

    def __len__(self):
        return len(self.labels)

    def subset(self, indices) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices],
                       self.class_count, self.split)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------

def decode_cifar_records(raw: bytes, source: str = "<bytes>"):
    """Records of 1 label byte + 3072 pixel bytes (R, G, B planes, 32x32)."""
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES:
        raise DataFormatError(
            f"{source}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return images, labels


def encode_cifar_records(images: np.ndarray, labels: np.ndarray) -> bytes:
    """Inverse of :func:`decode_cifar_records` (bit-exact round trip)."""
    pixels = np.clip(np.rint(np.asarray(images) * 255.0), 0, 255).astype(np.uint8)
    out = bytearray()
    for label, img in zip(labels, pixels):
        out.append(int(label))
        out.extend(img.tobytes())
    return bytes(out)


def load_cifar10_binary(directory) -> tuple[Dataset, Dataset]:
    directory = Path(directory)
    train_files = sorted(directory.glob("data_batch_*"))
    test_files = sorted(directory.glob("test_batch*"))
    if not train_files or not test_files:
        raise DataFormatError(f"{directory}: no CIFAR-10 batch files found")

    def load(files, split):
        images, labels = [], []
        for path in files:
            imgs, labs = decode_cifar_records(path.read_bytes(), str(path))
            images.append(imgs)
            labels.append(labs)
        return Dataset(np.concatenate(images), np.concatenate(labels), 10, split)

    return load(train_files, "train"), load(test_files, "test")


# ---------------------------------------------------------------------------
# PPM (P6) image IO
# ---------------------------------------------------------------------------

def read_ppm(path) -> np.ndarray:
    """Binary P6 PPM -> float32 [3,H,W] in [0,1]; maxval must be 255."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise DataFormatError(f"{path}: not a P6 PPM file")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise DataFormatError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 is supported")
    if min(width, height) < 1:
        raise DataFormatError(
            f"{path}: image is {width}x{height}, needs width and height >= 1")
    pos += 1  # single whitespace after maxval
    pixels = raw[pos:pos + width * height * 3]
    if len(pixels) != width * height * 3:
        raise DataFormatError(f"{path}: truncated pixel data")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    return arr.transpose(2, 0, 1).astype(np.float32) / 255.0


def write_ppm(path, image: np.ndarray) -> None:
    c, h, w = image.shape
    if c != 3:
        raise DataFormatError("PPM writer needs a [3,H,W] image")
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(pixels.transpose(1, 2, 0).tobytes())


def load_ppm_dir(directory) -> Dataset:
    """All *.ppm files of a directory as a 1-class dataset (sorted order)."""
    files = sorted(Path(directory).glob("*.ppm"))
    if not files:
        raise DataFormatError(f"{directory}: no .ppm files found")
    images = [read_ppm(f) for f in files]
    _, h, w = images[0].shape
    for f, img in zip(files, images):
        if img.shape[1:] != (h, w):
            raise DataFormatError(f"{f}: image is {img.shape[2]}x{img.shape[1]}, "
                                  f"but {files[0].name} is {w}x{h}")
    return Dataset(np.stack(images), np.zeros(len(files), dtype=np.int64), 1, "train")


# ---------------------------------------------------------------------------
# per-class manifest subsampling
# ---------------------------------------------------------------------------

def write_per_class_manifest(root_dir, per_class: int = 300, manifest_path=None):
    """Write a manifest of the lexicographically first ``per_class`` files of
    every class directory; short classes contribute all files and get a
    ``#``-prefixed warning line.  Returns the manifest path.
    """
    if per_class < 1:
        raise ConfigurationError(f"per_class must be >= 1, got {per_class}")
    root = Path(root_dir)
    classes = sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []
    if not classes:
        raise ConfigurationError(f"{root}: no class subdirectories")
    manifest_path = Path(manifest_path) if manifest_path else root / "manifest.txt"
    lines = []
    for cls in classes:
        files = sorted(p.name for p in cls.iterdir() if p.is_file())
        if len(files) < per_class:
            lines.append(f"# WARNING: class {cls.name} has only {len(files)} "
                         f"files (requested {per_class})")
        for name in files[:per_class]:
            lines.append(f"{cls.name}/{name}")
    manifest_path.write_text("\n".join(lines) + "\n")
    return manifest_path


# ---------------------------------------------------------------------------
# synthetic desk-scale dataset
# ---------------------------------------------------------------------------

def synthetic_classification_dataset(classes: int, per_class: int, size: int,
                                     seed: int = 0, split: str = "train") -> Dataset:
    """Colored gratings: each class has a distinct hue, orientation, and
    spatial frequency; random phase and pixel noise keep it non-trivial.
    Deterministic under the seed.
    """
    if min(classes, per_class, size) < 1:
        raise ConfigurationError("classes, per_class, size must be positive")
    if seed < 0:
        raise ConfigurationError(f"'seed' must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size] / size
    images = np.empty((classes * per_class, 3, size, size), dtype=np.float32)
    labels = np.repeat(np.arange(classes), per_class).astype(np.int64)
    for c in range(classes):
        color = np.array(colorsys.hsv_to_rgb(c / classes, 0.9, 0.9), dtype=np.float32)
        angle = np.pi * c / classes
        freq = 1.5 + (c % 5)
        axis = xs * np.cos(angle) + ys * np.sin(angle)
        for s in range(per_class):
            phase = rng.uniform(0, 2 * np.pi)
            wave = 0.5 + 0.45 * np.sin(2 * np.pi * freq * axis + phase)
            img = color[:, None, None] * wave[None]
            img += rng.normal(0.0, 0.05, size=img.shape)
            images[c * per_class + s] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels, classes, split)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

class AugmentationPolicy:
    """Training-split augmentation: each image is cropped back to its size at
    a random offset into a copy zero-padded by 4 px on every side, then
    flipped left-right with probability 1/2.  The eval path never applies
    any of it."""

    def __call__(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, _, h, w = images.shape
        padded = np.pad(images, ((0, 0), (0, 0), (4, 4), (4, 4)))
        offs = rng.integers(0, 9, size=(n, 2))
        out = np.empty_like(images)
        for i, (oy, ox) in enumerate(offs):
            out[i] = padded[i, :, oy:oy + h, ox:ox + w]
        flips = rng.random(n) < 0.5
        out[flips] = out[flips, :, :, ::-1]
        return out
