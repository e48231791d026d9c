import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from qaxial.data import (
    AugmentationPolicy,
    CIFAR_RECORD_BYTES,
    Dataset,
    decode_cifar_records,
    encode_cifar_records,
    load_cifar10_binary,
    load_ppm_dir,
    read_ppm,
    write_per_class_manifest,
    synthetic_classification_dataset,
    write_ppm,
)
from qaxial.errors import ConfigurationError, DataFormatError


def fake_cifar_dir(tmp_path, per_batch=20, batches=2, seed=0):
    rng = np.random.default_rng(seed)
    for name, count in [(f"data_batch_{i + 1}.bin", per_batch) for i in range(batches)] \
            + [("test_batch.bin", per_batch)]:
        raw = bytearray()
        for _ in range(count):
            raw.append(int(rng.integers(0, 10)))
            raw.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
        (tmp_path / name).write_bytes(bytes(raw))
    return tmp_path


class TestCifarLoader:
    def test_loads_all_batches(self, tmp_path):
        fake_cifar_dir(tmp_path, per_batch=20, batches=2)
        train, test = load_cifar10_binary(tmp_path)
        assert len(train) == 40 and len(test) == 20
        assert train.class_count == 10
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_first_byte_is_label(self, tmp_path):
        raw = bytearray(CIFAR_RECORD_BYTES)
        raw[0] = 7
        images, labels = decode_cifar_records(bytes(raw))
        assert labels[0] == 7

    def test_plane_order_r_then_g_then_b(self):
        raw = bytearray(CIFAR_RECORD_BYTES)
        raw[1] = 255            # first red pixel
        raw[1 + 1024] = 128     # first green pixel
        images, _ = decode_cifar_records(bytes(raw))
        assert images[0, 0, 0, 0] == 1.0
        assert images[0, 1, 0, 0] == pytest.approx(128 / 255)
        assert images[0, 2, 0, 0] == 0.0

    def test_truncated_file_raises_with_filename(self, tmp_path):
        fake_cifar_dir(tmp_path)
        bad = tmp_path / "data_batch_1.bin"
        bad.write_bytes(bad.read_bytes()[:-10])
        with pytest.raises(DataFormatError, match="data_batch_1"):
            load_cifar10_binary(tmp_path)

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_cifar10_binary(tmp_path)

    def test_round_trip_reserialization(self, tmp_path):
        fake_cifar_dir(tmp_path, per_batch=12, batches=1)
        raw = (tmp_path / "data_batch_1.bin").read_bytes()
        images, labels = decode_cifar_records(raw)
        assert encode_cifar_records(images, labels) == raw


class TestManifest:
    def make_tree(self, tmp_path, sizes):
        for cls, count in sizes.items():
            d = tmp_path / cls
            d.mkdir()
            for i in range(count):
                (d / f"img_{i:04d}.ppm").write_bytes(b"")
        return tmp_path

    def test_per_class_one(self, tmp_path):
        self.make_tree(tmp_path, {"cat": 3, "dog": 2, "eel": 5})
        manifest = write_per_class_manifest(tmp_path, per_class=1)
        lines = [l for l in manifest.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["cat/img_0000.ppm", "dog/img_0000.ppm", "eel/img_0000.ppm"]

    def test_takes_lexicographically_first(self, tmp_path):
        d = tmp_path / "cls"
        d.mkdir()
        for name in ("b.ppm", "a.ppm", "c.ppm"):
            (d / name).write_bytes(b"")
        manifest = write_per_class_manifest(tmp_path, per_class=2)
        lines = [l for l in manifest.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["cls/a.ppm", "cls/b.ppm"]

    def test_short_class_clamped_with_warning(self, tmp_path):
        self.make_tree(tmp_path, {"small": 4})
        manifest = write_per_class_manifest(tmp_path, per_class=300)
        text = manifest.read_text().splitlines()
        warnings = [l for l in text if l.startswith("#")]
        paths = [l for l in text if not l.startswith("#")]
        assert len(paths) == 4
        assert len(warnings) == 1 and "small" in warnings[0] and "4" in warnings[0]

    def test_deterministic_and_idempotent(self, tmp_path):
        self.make_tree(tmp_path, {"x": 5, "y": 3})
        first = write_per_class_manifest(tmp_path, per_class=2).read_text()
        second = write_per_class_manifest(tmp_path, per_class=2).read_text()
        assert first == second

    @pytest.mark.parametrize("per_class", [0, -1])
    def test_per_class_below_one_rejected(self, tmp_path, per_class):
        self.make_tree(tmp_path, {"cat": 3})
        with pytest.raises(ConfigurationError, match="per_class"):
            write_per_class_manifest(tmp_path, per_class=per_class)
        assert not (tmp_path / "manifest.txt").exists()

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_per_class_manifest(tmp_path / "missing")
        with pytest.raises(ConfigurationError):
            write_per_class_manifest(tmp_path)


class TestSyntheticDataset:
    def test_deterministic_under_seed(self):
        a = synthetic_classification_dataset(4, 5, 16, seed=1)
        b = synthetic_classification_dataset(4, 5, 16, seed=1)
        npt.assert_array_equal(a.images, b.images)
        npt.assert_array_equal(a.labels, b.labels)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="'seed'"):
            synthetic_classification_dataset(4, 5, 16, seed=-1)

    def test_shapes_and_counts(self):
        data = synthetic_classification_dataset(10, 50, 32, seed=0)
        assert data.images.shape == (500, 3, 32, 32)
        assert data.labels.shape == (500,)
        assert data.class_count == 10
        assert sorted(set(data.labels.tolist())) == list(range(10))

    def test_classes_are_visually_distinct(self):
        data = synthetic_classification_dataset(4, 20, 16, seed=2)
        means = np.stack([
            data.images[data.labels == c].mean(axis=(0, 2, 3)) for c in range(4)])
        # distinct hues: per-class mean colors differ pairwise
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.abs(means[a] - means[b]).max() > 0.05


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.random((3, 7, 5)).astype(np.float32)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 7, 5)
        npt.assert_allclose(back, np.rint(img * 255) / 255, atol=1e-7)

    def test_header_with_comment(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        assert read_ppm(path).shape == (3, 1, 2)

    def test_rejects_wrong_magic_and_truncation(self, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(DataFormatError):
            read_ppm(bad)
        short = tmp_path / "short.ppm"
        short.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(DataFormatError):
            read_ppm(short)

    def test_rejects_zero_width_or_height(self, tmp_path):
        for header in (b"P6 0 0 255\n", b"P6\n3 0\n255\n", b"P6\n0 2\n255\n"):
            path = tmp_path / "empty.ppm"
            path.write_bytes(header)
            with pytest.raises(DataFormatError, match="width and height"):
                read_ppm(path)

    def test_load_dir_rejects_mixed_sizes(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 4, 4), dtype=np.float32))
        write_ppm(tmp_path / "b.ppm", np.zeros((3, 4, 4), dtype=np.float32))
        write_ppm(tmp_path / "c.ppm", np.zeros((3, 5, 5), dtype=np.float32))
        with pytest.raises(DataFormatError, match=r"c\.ppm: image is 5x5, but a\.ppm is 4x4"):
            load_ppm_dir(tmp_path)

    def test_load_dir_sorted(self, tmp_path):
        for i, val in enumerate((0.2, 0.8)):
            write_ppm(tmp_path / f"{i}.ppm", np.full((3, 2, 2), val, dtype=np.float32))
        data = load_ppm_dir(tmp_path)
        assert len(data) == 2
        assert data.images[0].mean() < data.images[1].mean()


class TestAugmentation:
    def test_applied_shapes_preserved(self):
        policy = AugmentationPolicy()
        images = np.random.default_rng(0).random((8, 3, 32, 32)).astype(np.float32)
        out = policy(images, np.random.default_rng(1))
        assert out.shape == images.shape
        assert not np.array_equal(out, images)

    def test_output_is_pinned(self):
        # 4-px padded crop, then a flip with probability 1/2, offsets drawn first
        images = np.random.default_rng(0).random((8, 3, 32, 32)).astype(np.float32)
        out = AugmentationPolicy()(images, np.random.default_rng(1))
        assert hashlib.sha256(out.tobytes()).hexdigest() == \
            "16beddfc135b7b1ef1de74d2fba4140bacf30ddd464920a8f08404ed318a2ed1"

    def test_deterministic_under_rng(self):
        policy = AugmentationPolicy()
        images = np.random.default_rng(4).random((4, 3, 16, 16)).astype(np.float32)
        a = policy(images, np.random.default_rng(5))
        b = policy(images, np.random.default_rng(5))
        npt.assert_array_equal(a, b)

    def test_dataset_validation(self):
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((2, 3, 4, 4)), np.array([0, 5]), class_count=3)
