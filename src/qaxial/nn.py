"""Layer abstractions over the autodiff ops.

Modules own their parameters (:class:`Parameter` tensors) and named buffers
(plain numpy arrays such as batch-norm running statistics).  A module tree is
walked by ``named_parameters`` / ``named_buffers`` for optimization and
checkpointing, and every ``__call__`` can be traced to produce model
summaries.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError

_trace_sink = None


class Parameter(Tensor):
    """Trainable tensor; ``decay`` marks eligibility for weight decay."""

    __slots__ = ("decay", "kind")

    def __init__(self, data, decay: bool = True, kind: str = "weight", dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.decay = decay
        self.kind = kind


class Module:
    """Base class for layers; children and parameters register on setattr."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if name in self._params and not isinstance(value, Parameter):
            raise ContractError(
                f"assigning a non-Parameter over parameter {name!r} would unregister it")
        self._params.pop(name, None)
        self._children.pop(name, None)
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray):
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        if _trace_sink is not None and not self._children:
            _trace_sink.append((self, out))
        return out

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    # tree walking ----------------------------------------------------------
    def named_modules(self, prefix: str = ""):
        yield prefix, self
        for name, child in self._children.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(sub)

    def named_parameters(self, prefix: str = ""):
        for name, mod in self.named_modules(prefix):
            for pname, p in mod._params.items():
                yield (f"{name}.{pname}" if name else pname), p

    def named_buffers(self, prefix: str = ""):
        for name, mod in self.named_modules(prefix):
            for bname, b in mod._buffers.items():
                yield (f"{name}.{bname}" if name else bname), b

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True):
        for _, mod in self.named_modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self):
        return self.train(False)

    def to_dtype(self, dtype):
        """Cast all parameters in place (float32 <-> float64)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        for _, mod in self.named_modules():
            for bname, buf in mod._buffers.items():
                if np.issubdtype(buf.dtype, np.floating):
                    mod.register_buffer(bname, buf.astype(dtype))
        return self


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._order = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)

    def __iter__(self):
        return (self._children[n] for n in self._order)

    def __len__(self):
        return len(self._order)

    def __getitem__(self, i):
        return self._children[self._order[i]]

    def forward(self, x):
        for m in self:
            x = m(x)
        return x


def _he_normal(rng: np.random.Generator, shape, fan_in: int, dtype=np.float32):
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(_he_normal(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in))

    def forward(self, x):
        return ad.conv2d(x, self.weight, None, self.stride, self.padding)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        bound = 1.0 / math.sqrt(in_features)
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(out_features, in_features)).astype(np.float32))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32),
                              decay=False, kind="bias")

    def forward(self, x):
        return ad.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    def __init__(self, channels: int, momentum: float = 0.1, epsilon: float = 1e-5):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = Parameter(np.ones(channels, dtype=np.float32),
                               decay=False, kind="bn")
        self.beta = Parameter(np.zeros(channels, dtype=np.float32),
                              decay=False, kind="bn")
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x):
        if x.shape[1] != self.channels:
            raise ShapeError(f"batch norm over {self.channels} channels got {x.shape[1]}")
        return ad.batch_norm2d(x, self.gamma, self.beta,
                               self.running_mean, self.running_var,
                               self.training, self.momentum, self.epsilon)


class ReLU(Module):
    def forward(self, x):
        return ad.relu(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x):
        return ad.max_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool(Module):
    def forward(self, x):
        return ad.global_avg_pool(x)


class _Trace:
    """Collects (module, output) pairs from leaf-module calls."""

    def __enter__(self):
        global _trace_sink
        self.records = []
        _trace_sink = self.records
        return self.records

    def __exit__(self, *exc):
        global _trace_sink
        _trace_sink = None
        return False


def trace_forward(module: Module, *args):
    """Run ``module(*args)`` collecting every leaf call; returns (out, records)."""
    with _Trace() as records:
        out = module(*args)
    return out, records
