import numpy as np
import pytest

from qaxial.data import Dataset, synthetic_classification_dataset
from qaxial.errors import ConfigurationError, NumericsError, TrainingDivergedError
from qaxial.recon import (
    QuaternionColorizer,
    RealColorizer,
    color_reconstruction_experiment,
    initial_mse_ratio,
    to_grayscale,
)


class TestGrayscale:
    def test_luminance_weights(self):
        img = np.zeros((1, 3, 2, 2), dtype=np.float32)
        img[0, 0] = 1.0
        assert to_grayscale(img)[0, 0, 0, 0] == pytest.approx(0.299)
        img[0] = 1.0
        assert to_grayscale(img)[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-6)


class TestParameterMatch:
    def test_budgets_match_exactly_at_default_widths(self):
        rng = np.random.default_rng(0)
        quat = QuaternionColorizer(8, rng)
        real = RealColorizer(16, rng)
        assert quat.param_count() == real.param_count()

    def test_too_few_images_rejected(self):
        data = synthetic_classification_dataset(2, 2, 8, seed=0)
        with pytest.raises(ConfigurationError):
            color_reconstruction_experiment(data, epochs=1)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        data = synthetic_classification_dataset(4, 10, 8, seed=0)
        with pytest.raises(ConfigurationError, match="epochs must be >= 1"):
            color_reconstruction_experiment(data, epochs=epochs)

    def test_negative_seed_rejected(self):
        data = synthetic_classification_dataset(4, 10, 8, seed=0)
        with pytest.raises(ConfigurationError, match="'seed'"):
            color_reconstruction_experiment(data, epochs=1, seed=-1)


class TestExperiment:
    def test_initial_mse_near_target_variance(self):
        data = synthetic_classification_dataset(6, 40, 12, seed=1)
        quat_ratio, real_ratio = initial_mse_ratio(data)
        assert abs(quat_ratio - 1.0) < 0.10
        assert abs(real_ratio - 1.0) < 0.10

    def test_deterministic_under_seed(self):
        data = synthetic_classification_dataset(4, 20, 8, seed=2)
        first = color_reconstruction_experiment(data, epochs=1, seed=5)
        second = color_reconstruction_experiment(data, epochs=1, seed=5)
        assert first == second

    def test_two_epoch_run_is_pinned(self):
        # taken from the colour run's own loop before it trained through
        # training.train: shuffle, schedule, loss, step and scoring keep every bit
        data = synthetic_classification_dataset(4, 20, 8, seed=2)
        quat, real = color_reconstruction_experiment(data, epochs=2, seed=5)
        assert (quat.hex(), real.hex()) == ("0x1.4575daaaaaaabp-4", "0x1.3dd3755555555p-4")

    def test_initial_ratio_is_pinned(self):
        data = synthetic_classification_dataset(6, 40, 12, seed=1)
        quat, real = initial_mse_ratio(data)
        assert (quat.hex(), real.hex()) == ("0x1.fdb00662e1a7dp-1", "0x1.00aab4f47bd18p+0")

    def test_training_lowers_mse_below_initial(self):
        data = synthetic_classification_dataset(6, 50, 12, seed=3)
        n_test = len(data.images) // 5
        train_imgs, test_imgs = data.images[:-n_test], data.images[-n_test:]
        centered = test_imgs - train_imgs.mean(axis=(0, 2, 3), keepdims=True)
        variance = float((centered ** 2).mean())
        quat0, real0 = initial_mse_ratio(data, seed=1)
        quat, real = color_reconstruction_experiment(data, epochs=6, seed=1)
        assert quat < 0.85 * quat0 * variance
        assert real < 0.85 * real0 * variance


def scaled_dataset(factor):
    """Images far outside [0, 1], on which lr 0.05 overflows the colorizers."""
    data = synthetic_classification_dataset(4, 10, 8, seed=0)
    return Dataset(data.images * factor, data.labels, data.class_count)


class TestDivergence:
    # numpy warns as the values overflow; pytest would turn that into an error
    def test_non_finite_loss_raises_before_stepping(self):
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
            color_reconstruction_experiment(scaled_dataset(300), epochs=2)
        assert (info.value.epoch, info.value.step) == (1, 0)

    def test_non_finite_held_out_error_raises(self):
        # one epoch leaves finite weights whose squared held-out error overflows
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="sample 0"):
            color_reconstruction_experiment(scaled_dataset(300), epochs=1)
