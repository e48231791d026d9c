"""Gray-to-color reconstruction comparison.

Trains two small convolutional autoencoders with matched trainable-parameter
budgets on the same luminance inputs and color targets: one quaternion-valued
(grayscale replicated into the three imaginary channels of a zero-real-part
quaternion input) and one real-valued.  Held-out color MSE of each is
returned; the quaternion network's weight sharing buys it twice the feature
channels at the same parameter count.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError
from .nn import Conv2d, Module, ReLU
from .quaternion import QuaternionConv2d
from .training import TrainConfig, evaluate, squared_error, train

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114], dtype=np.float32)


def to_grayscale(images: np.ndarray) -> np.ndarray:
    """[N,3,H,W] color -> [N,1,H,W] luminance."""
    return np.einsum("nchw,c->nhw", images, LUMA_WEIGHTS)[:, None]


class QuaternionColorizer(Module):
    """Quaternion conv stack; output quaternions' (i,j,k) are the RGB guess."""

    def __init__(self, width_quats: int, rng):
        super().__init__()
        c = 4 * width_quats
        self.conv_in = QuaternionConv2d(4, c, 3, padding=1, rng=rng)
        self.conv_mid = QuaternionConv2d(c, c, 3, padding=1, rng=rng)
        self.conv_out = QuaternionConv2d(c, 4, 3, padding=1, rng=rng)
        self.relu = ReLU()
        self.conv_out.weight.data *= 0.1  # start the head near zero

    def forward(self, gray):
        n, _, h, w = gray.shape
        zeros = Tensor(np.zeros((n, 1, h, w), dtype=gray.dtype))
        x = ad.concat([zeros, gray, gray, gray], axis=1)
        x = self.relu(self.conv_in(x))
        x = self.relu(self.conv_mid(x))
        return ad.narrow(self.conv_out(x), 1, 1, 3)


class RealColorizer(Module):
    def __init__(self, width: int, rng):
        super().__init__()
        self.conv_in = Conv2d(1, width, 3, padding=1, rng=rng)
        self.conv_mid = Conv2d(width, width, 3, padding=1, rng=rng)
        self.conv_out = Conv2d(width, 3, 3, padding=1, rng=rng)
        self.relu = ReLU()
        self.conv_out.weight.data *= 0.1

    def forward(self, gray):
        x = self.relu(self.conv_in(gray))
        x = self.relu(self.conv_mid(x))
        return self.conv_out(x)


def _mean_squared_error(outputs: Tensor, targets: np.ndarray) -> Tensor:
    diff = outputs - Tensor(targets)
    return (diff * diff).mean()


def _setup(dataset, seed):
    """Train and held-out (last 20%) splits, each gray ``images`` with color
    ``labels`` centered by the training split's means, and the two
    untrained colorizers."""
    images = np.asarray(dataset.images, dtype=np.float32)
    if len(images) < 10:
        raise ConfigurationError("need at least 10 color images")
    n_test = max(1, int(len(images) * 0.2))
    train_imgs, test_imgs = images[:-n_test], images[-n_test:]
    gray_train = to_grayscale(train_imgs)
    gray_mean = gray_train.mean()
    color_mean = train_imgs.mean(axis=(0, 2, 3), keepdims=True)

    quat = QuaternionColorizer(8, np.random.default_rng([seed, 101]))
    real = RealColorizer(16, np.random.default_rng([seed, 202]))
    return (SimpleNamespace(images=gray_train - gray_mean, labels=train_imgs - color_mean),
            SimpleNamespace(images=to_grayscale(test_imgs) - gray_mean,
                            labels=test_imgs - color_mean), quat, real)


def color_reconstruction_experiment(dataset, epochs: int = 6, seed: int = 0):
    """Train matched quaternion and real colorizers; return their held-out MSEs.

    The quaternion colorizer has 8 quaternion (32 real) channels and the real
    one 16, so both budgets are exactly 36*8**2 + 72*8 = 2880 weights.  Both
    train through :func:`training.train` on the mean squared error, with
    SGD, momentum 0.9, a constant lr 0.05 and batch 16, and are scored by
    :func:`training.evaluate` with :func:`training.squared_error`.  Inputs
    and color targets are centered by training-split channel means, so an
    untrained (near-zero output) model scores roughly the target variance.
    A non-finite batch loss raises ``TrainingDivergedError`` before its
    step, and a non-finite held-out error ``NumericsError``.
    """
    config = TrainConfig(epochs, batch_size=16, base_lr=0.05, warmup_epochs=1,
                         decay_epochs=(), momentum=0.9, weight_decay=0.0, seed=seed)
    train_split, test_split, quat, real = _setup(dataset, seed)
    for model in (quat, real):
        train(model, train_split, None, config, loss_fn=_mean_squared_error,
              metric=squared_error)
    return evaluate(quat, test_split, squared_error), evaluate(real, test_split, squared_error)


def initial_mse_ratio(dataset, seed: int = 0):
    """(quat, real) untrained held-out MSE divided by target variance."""
    _, test_split, quat, real = _setup(dataset, seed)
    variance = float((test_split.labels ** 2).mean())
    return (evaluate(quat, test_split, squared_error) / variance,
            evaluate(real, test_split, squared_error) / variance)
