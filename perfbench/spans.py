"""In-memory span recorder for the traced benchmark run (``--trace 1``).

The tracer wraps the package's public entry points from outside: every
``qaxial.autodiff`` op (and the backward closure of the tensor it returns),
``Module.__call__`` (which every layer goes through), ``autodiff.backward``,
``SGDMomentum.step``, ``checkpoint_save``, ``evaluate``,
``AugmentationPolicy.__call__`` and the quaternion weight expansions.  Each
span keeps its name, start, end and parent; spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from qaxial import autodiff, axial, data, nn, quaternion, training, zoo

STEP = "bench.step"

# op functions that call autodiff._result themselves; the composites below
# return a child op's tensor, so they get a span but add no tape node
PRIMITIVE_OPS = {
    "add": "add", "sub": "sub", "mul": "mul", "neg": "neg", "matmul": "matmul",
    "reshape": "reshape", "transpose": "transpose", "concat": "concat",
    "stack": "stack", "narrow": "narrow", "take_rows": "take_rows",
    "relu": "relu", "softplus": "softplus", "softmax": "softmax",
    "tensor_sum": "sum", "conv2d": "conv2d", "max_pool2d": "max_pool2d",
    "avg_pool2d_2x2": "avg_pool2d", "global_avg_pool": "global_avg_pool",
    "batch_norm2d": "batch_norm2d", "cross_entropy": "cross_entropy",
}
COMPOSITE_OPS = {"tensor_mean": "mean", "linear": "linear"}

MODULE_SPANS = {
    axial.AxialAttention1D: "axial.attn1d",
    axial.AxialPairModule: "axial.pair",
    quaternion.QuaternionConv2d: "quaternion.conv",
    quaternion.QuaternionBank1x1: "quaternion.bank",
    zoo.Model: "zoo.model",
}


class Tracer:
    """Records spans as ``[name, start, end, parent, result_bytes, tape_node]``."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._undo = []
        self.module_names = {}  # id(module) -> span name, for zoo groups

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0, False])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def _op(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.begin("op." + name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            span = self.spans[index]
            span[4] = out.data.nbytes
            if out._backward_fn is not None:
                span[5] = True
                out._backward_fn = self.timed("bwd." + name, out._backward_fn)
            return out
        return wrapper

    def _module_call(self, original):
        names = self.module_names

        def wrapper(module, *args, **kwargs):
            name = names.get(id(module)) or MODULE_SPANS.get(type(module))
            if name is None:
                name = ("nn." + type(module).__name__) if not module._children \
                    else "module." + type(module).__name__
            index = self.begin(name)
            try:
                return original(module, *args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for fn_name, op in PRIMITIVE_OPS.items():
            self._patch(autodiff, fn_name, self._op(op, getattr(autodiff, fn_name)))
        for fn_name, op in COMPOSITE_OPS.items():
            self._patch(autodiff, fn_name, self.timed("op." + op, getattr(autodiff, fn_name)))
        self._patch(autodiff, "backward", self.timed("autodiff.backward", autodiff.backward))
        self._patch(nn.Module, "__call__", self._module_call(nn.Module.__call__))
        for cls, method in ((quaternion.QuaternionConv2d, "expanded_weight"),
                            (quaternion.QuaternionBank1x1, "group_matrices")):
            self._patch(cls, method, self.timed("quaternion.expand", cls.__dict__[method]))
        self._patch(training.SGDMomentum, "step",
                    self.timed("training.sgd_step", training.SGDMomentum.step))
        for fn_name in ("evaluate", "checkpoint_save"):
            self._patch(training, fn_name,
                        self.timed("training." + fn_name, getattr(training, fn_name)))
        self._patch(data.AugmentationPolicy, "__call__",
                    self.timed("data.augment", data.AugmentationPolicy.__call__))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def name_groups(self, model) -> None:
        """Label each residual block's span with its zoo group (1-4)."""
        for g, group in enumerate(model.groups, start=1):
            for block in group:
                self.module_names[id(block)] = f"zoo.group{g}"

    # -- analysis --------------------------------------------------------
    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child_time)]

    def step_of(self):
        """Per span: index of the enclosing step span, or -1."""
        owner = [-1] * len(self.spans)
        for i, (name, _, _, parent, _, _) in enumerate(self.spans):
            if name == STEP:
                owner[i] = i
            elif parent >= 0:
                owner[i] = owner[parent]
        return owner

    def durations(self, name: str):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        selfs = self.self_times()
        totals = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            totals[span[0]] += own
        with open(path, "w") as fh:
            json.dump({
                "columns": ["name", "start_us", "end_us", "parent", "self_us"],
                "self_ms_by_name": {k: v * 1e3 for k, v in
                                    sorted(totals.items(), key=lambda kv: -kv[1])},
                "spans": [[s[0], round((s[1] - origin) * 1e6, 1),
                           round((s[2] - origin) * 1e6, 1), s[3], round(own * 1e6, 1)]
                          for s, own in zip(self.spans, selfs)],
            }, fh, separators=(",", ":"))


def per_step(tracer: Tracer):
    """Aggregate the spans inside each step span.

    Returns a map from a metric key to one value per step.  Times are in ms:
    ``<op>.fwd_ms`` and ``<op>.bwd_ms`` are self times, ``<span>.ms`` of
    modules and layers are inclusive.
    """
    owner = tracer.step_of()
    selfs = tracer.self_times()
    steps = [i for i, s in enumerate(tracer.spans) if s[0] == STEP]
    slot = {index: k for k, index in enumerate(steps)}
    layers = defaultdict(lambda: [0.0] * len(steps))
    first_group = {}
    last_group = {}
    for i, (name, start, end, parent, nbytes, tape) in enumerate(tracer.spans):
        k = slot.get(owner[i])
        if k is None or name == STEP:
            continue
        ms = (end - start) * 1e3
        own = selfs[i] * 1e3
        if name.startswith("op.") or name.startswith("bwd."):
            kind, op = name.split(".", 1)
            layers[f"{op}.{'fwd' if kind == 'op' else 'bwd'}_ms"][k] += own
            if kind == "op":
                layers[f"{op}.calls"][k] += 1
                layers["result_bytes"][k] += nbytes
                layers["tape_nodes"][k] += tape
            continue
        if name.startswith("nn.") or name in ("axial.attn1d", "quaternion.conv",
                                               "quaternion.bank"):
            layers["leaf_self_ms"][k] += own
        if name == "autodiff.backward":
            layers["backward_self_ms"][k] += own
        layers[name + ".calls"][k] += 1
        layers[name + ".ms"][k] += ms
        if name.startswith("zoo.group"):
            first_group.setdefault((k, parent), start)
            last_group[(k, parent)] = end
    # stem and head: the model span before its first block and after its last
    for (k, model_index), first in first_group.items():
        model = tracer.spans[model_index]
        layers["zoo.stem.ms"][k] += (first - model[1]) * 1e3
        layers["zoo.head.ms"][k] += (model[2] - last_group[(k, model_index)]) * 1e3
    return layers
