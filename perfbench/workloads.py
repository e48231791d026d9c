"""The benchmark's workloads.

Each workload is a closed loop with one client in one process: the next
request or training step starts only after the previous one has returned.
The workload seed generates the images.  The model's initialisation seed
and the training schedule's shuffling and augmentation seed stay fixed, as in
acceptance criterion 9, so a seed changes what the program is fed, never
which program runs.

A workload returns its end-to-end metrics, or in a traced run its per-layer
metrics and its spans.  Every output check is counted in ``Outcome``.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from qaxial import autodiff as ad
from qaxial import axial, data, training, zoo
from qaxial.autodiff import Tensor

from spans import STEP, Tracer, per_step

MODEL_SEED = 0
SETUP_REPEATS = 3

INFER_INPUTS = 4         # distinct 224x224 images, cycled through the window
INFER_TOLERANCE = 1e-4   # max |float32 - float64| logit, times max(1, max |logit|)

# the smoke-training schedule of acceptance criterion 9; ``epochs`` is
# replaced by one past the epoch being run
SCHEDULE = training.TrainConfig(epochs=50, batch_size=10, base_lr=0.03,
                                warmup_epochs=5, decay_epochs=(20, 35),
                                momentum=0.9, weight_decay=1e-4)

OPS = ("conv2d", "matmul", "batch_norm2d", "softmax", "mul", "sum", "add",
       "transpose", "take_rows", "stack", "neg", "max_pool2d", "relu",
       "cross_entropy")


@dataclass(frozen=True)
class TrainWorkload:
    variant: str
    width_scale: float | None
    per_class: int    # training images per class, 10 classes


TRAIN_WORKLOADS = {
    # criterion-9 config: 500 images, 50 steps an epoch
    "train-smoke": TrainWorkload("quat_axial", 0.25, 50),
    # 8.07M parameters; 30 images, so an epoch is 3 steps of ~2 s
    "train-quatres": TrainWorkload("quat_resnet", None, 3),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.info.setdefault("failures", []).append(what)


def percentile(values, q) -> float:
    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def timing_metrics(setup_s, fwd_ms, step_ms, samples, elapsed, loss) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "fwd_ms_p50": percentile(fwd_ms, 50),
        "fwd_ms_p90": percentile(fwd_ms, 90),
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p90": percentile(step_ms, 90),
        "samples_per_s": samples / elapsed,
        "peak_rss_mb": peak_rss_mb(),
        "loss_final": loss,
    }


def attention_macs(model) -> tuple[int, int]:
    """Exact attention-core MACs of one image's forward: axial and dense 2-D."""
    axial_macs = dense_macs = 0
    for _, module in model.named_modules():
        if isinstance(module, axial.AxialPairModule):
            attn = module.height_attention
            args = (module.height, module.width, attn.channels, attn.heads)
            axial_macs += axial.axial_flop_count(*args)
            dense_macs += axial.full_attention_flop_count(*args)
    return axial_macs, dense_macs


def layer_metrics(tracer: Tracer, peaks, outcome: Outcome) -> dict:
    """Per-layer metrics from the spans of the timed steps.

    Times are medians over steps of the per-step total; counts must be the
    same in every step and are reported exactly.
    """
    layers = per_step(tracer)

    def median(key):
        return statistics.median(layers[key]) if key in layers else 0.0

    def count(key):
        values = layers.get(key)
        if not values:
            return 0
        if len(set(values)) > 1:
            outcome.info.setdefault("uneven_counts", []).append(key)
            return statistics.median(values)
        return int(values[0])

    def span_ms(name):
        values = tracer.durations(name)
        return statistics.median(values) * 1e3 if values else 0.0

    metrics = {}
    for op in OPS:
        metrics[f"autodiff.{op}.fwd_ms"] = median(f"{op}.fwd_ms")
        metrics[f"autodiff.{op}.bwd_ms"] = median(f"{op}.bwd_ms")
        metrics[f"autodiff.{op}.calls"] = count(f"{op}.calls")
    metrics.update({
        "autodiff.backward_ms": median("backward_self_ms"),
        "autodiff.tape_nodes": count("tape_nodes"),
        "autodiff.result_mb": count("result_bytes") / 1e6,
        "autodiff.peak_mb": statistics.median(peaks) / 1e6,
        "nn.leaf_self_ms": median("leaf_self_ms"),
        "axial.attn1d.fwd_ms": median("axial.attn1d.ms"),
        "axial.attn1d.calls": count("axial.attn1d.calls"),
        "axial.pair.fwd_ms": median("axial.pair.ms"),
        "quaternion.expand_ms": median("quaternion.expand.ms"),
        "quaternion.conv.fwd_ms": median("quaternion.conv.ms"),
        "quaternion.bank.fwd_ms": median("quaternion.bank.ms"),
        "zoo.stem.fwd_ms": median("zoo.stem.ms"),
        "zoo.head.fwd_ms": median("zoo.head.ms"),
        "training.sgd_step_ms": median("training.sgd_step.ms"),
        "training.evaluate_ms": span_ms("training.evaluate"),
        "training.checkpoint_save_ms": span_ms("training.checkpoint_save"),
        "data.augment_ms": median("data.augment.ms"),
    })
    for g in range(1, 5):
        metrics[f"zoo.group{g}.fwd_ms"] = median(f"zoo.group{g}.ms")
    return metrics


def setup_metrics(setup: dict, model) -> dict:
    axial_macs, dense_macs = attention_macs(model)
    loads = setup.get("load")
    return {
        "zoo.build_s": statistics.median(setup["build"]),
        "zoo.params": zoo.count_params(model),
        "data.synthetic_s": statistics.median(setup["synthetic"]),
        "training.checkpoint_load_ms": statistics.median(loads) * 1e3 if loads else 0.0,
        "axial.macs": axial_macs,
        "axial.macs_dense": dense_macs,
    }


# ---------------------------------------------------------------------------
# infer224: eval-mode forward of quat_axial-26 at 224x224, batch 1
# ---------------------------------------------------------------------------

def serve(model, inputs, seconds, minimum, first, outcome, tracer=None, memory=False):
    """Closed-loop inference requests until ``seconds`` passed and at least
    ``minimum`` were made.  A request fails when its logits are non-finite or
    differ in any bit from the first logits of the same input.  With
    ``memory``, tracemalloc must be running; each request's peak is kept."""
    fwd_ms, step_ms, peaks = [], [], []
    started = time.perf_counter()
    done = 0
    while done < minimum or time.perf_counter() - started < seconds:
        k = done % len(inputs)
        span = tracer.begin(STEP) if tracer else -1
        if memory:
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        logits = model(Tensor(inputs[k])).data
        t1 = time.perf_counter()
        finite = bool(np.isfinite(logits).all())
        top1 = int(logits.argmax())
        t2 = time.perf_counter()
        if memory:
            peaks.append(tracemalloc.get_traced_memory()[1])
        if tracer:
            tracer.end(span)
        fwd_ms.append((t1 - t0) * 1e3)
        step_ms.append((t2 - t0) * 1e3)
        if first[k] is None:
            first[k] = logits.copy()
        outcome.check(finite and same_bits(logits, first[k]),
                      f"request {done} (input {k}, top-1 {top1}): logits non-finite "
                      f"or not bitwise equal to the first request on that input")
        done += 1
    return fwd_ms, step_ms, peaks, time.perf_counter() - started


def check_against_float64(spec, inputs, logits, outcome) -> None:
    """Compare each input's float32 logits with a float64 rebuild of the
    same seeded model.  The top-1 class must agree unless the float64
    top-2 margin is within the tolerance, where float32 cannot decide it."""
    model64 = zoo.build(spec, seed=MODEL_SEED).eval().to_dtype(np.float64)
    with ad.no_grad():
        for k, x in enumerate(inputs):
            ref = model64(Tensor(x.astype(np.float64))).data[0]
            got = logits[k][0]
            tol = INFER_TOLERANCE * max(1.0, float(np.abs(ref).max()))
            runner_up, best = np.sort(ref)[-2:]
            same_top1 = got.argmax() == ref.argmax() or best - runner_up <= 2 * tol
            error = float(np.abs(got - ref).max())
            outcome.check(bool(np.isfinite(got).all()) and error <= tol and same_top1,
                          f"input {k}: float32 vs float64 max error {error:.3g} "
                          f"(tolerance {tol:.3g}), top-1 {got.argmax()} vs {ref.argmax()}")


def cross_entropy64(logits: np.ndarray, label: int) -> float:
    row = logits.astype(np.float64).reshape(-1)
    shift = row.max()
    return float(np.log(np.exp(row - shift).sum()) + shift - row[label])


def infer224(seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    outcome = Outcome()
    spec = zoo.spec_for("quat_axial", 26)
    setup = {"synthetic": [], "build": []}
    images = model = None
    for _ in range(SETUP_REPEATS):
        images = model = None  # release the previous copy before rebuilding
        t0 = time.perf_counter()
        images = data.synthetic_classification_dataset(INFER_INPUTS, 1, 224, seed=seed)
        t1 = time.perf_counter()
        model = zoo.build(spec, seed=MODEL_SEED).eval()
        setup["synthetic"].append(t1 - t0)
        setup["build"].append(time.perf_counter() - t1)
    inputs = [images.images[k:k + 1] for k in range(INFER_INPUTS)]
    first = [None] * INFER_INPUTS

    with ad.no_grad():
        for x in inputs:  # warm-up
            model(Tensor(x))
        tracer = outcome.tracer = Tracer().install() if trace else None
        if tracer:
            tracer.name_groups(model)
        fwd_ms, step_ms, _, elapsed = serve(
            model, inputs, seconds, INFER_INPUTS, first, outcome, tracer)
        if tracer:
            tracer.uninstall()
        setup_s = [sum(parts) for parts in zip(*setup.values())]
        loss = statistics.fmean(cross_entropy64(first[k], int(images.labels[k]))
                                for k in range(INFER_INPUTS))
        outcome.metrics = timing_metrics(setup_s, fwd_ms, step_ms, len(fwd_ms),
                                         elapsed, loss)
        outcome.info["samples"] = {"fwd_ms": len(fwd_ms), "step_ms": len(step_ms),
                                   "setup_s": len(setup_s)}
        if tracer:
            # untraced requests on the same inputs: tracing cost, and proof
            # that tracing leaves every logit bit unchanged
            plain_fwd, _, _, _ = serve(model, inputs, 0.0, 2 * INFER_INPUTS,
                                       first, outcome)
            tracemalloc.start()
            _, _, peaks, _ = serve(model, inputs, 0.0, INFER_INPUTS, first, outcome,
                                   memory=True)
            tracemalloc.stop()
            layers = layer_metrics(tracer, peaks, outcome)
            layers["trace.overhead_ms"] = percentile(fwd_ms, 50) - percentile(plain_fwd, 50)
            layers.update(setup_metrics(setup, model))
            layers["training.checkpoint_mb"] = 0.0  # no checkpoint on this workload
            outcome.metrics = layers
    check_against_float64(spec, inputs, first, outcome)
    return outcome


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class StepClock:
    """Step boundaries taken from hooks that ``training.train`` already calls:
    the augment callable starts a step, ``autodiff.cross_entropy`` ends its
    forward pass and ``optimizer.step`` ends it.  With ``memory``,
    tracemalloc must be running; each step's peak is kept."""

    def __init__(self, tracer: Tracer | None = None, memory: bool = False):
        self.tracer = tracer
        self.memory = memory
        self.policy = data.AugmentationPolicy()
        self.step_ms, self.fwd_ms, self.losses, self.peaks = [], [], [], []
        self._span = -1
        self._begin = self._augmented = self._forward = 0.0

    def augment(self, images, rng):
        if self.tracer:
            self._span = self.tracer.begin(STEP)
        if self.memory:
            tracemalloc.reset_peak()
        self._begin = time.perf_counter()
        images = self.policy(images, rng)
        self._augmented = time.perf_counter()
        return images

    @contextlib.contextmanager
    def attached(self, optimizer):
        cross_entropy = ad.cross_entropy

        def loss_fn(logits, labels):
            self._forward = time.perf_counter()
            loss = cross_entropy(logits, labels)
            self.losses.append(float(loss.data))
            return loss

        def step(lr):
            training.SGDMomentum.step(optimizer, lr)
            end = time.perf_counter()
            self.step_ms.append((end - self._begin) * 1e3)
            self.fwd_ms.append((self._forward - self._augmented) * 1e3)
            if self.memory:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
            if self.tracer:
                self.tracer.end(self._span)

        ad.cross_entropy = loss_fn
        optimizer.step = step
        try:
            yield
        finally:
            ad.cross_entropy = cross_entropy
            del optimizer.step


def run_epochs(model, optimizer, train_set, val_set, first_epoch, last_epoch,
               seconds, out_dir, clock):
    """Whole epochs through ``training.train`` (each ends with evaluate and
    checkpoint_save) until ``last_epoch`` is done and ``seconds`` passed."""
    losses = {}
    epoch = first_epoch
    started = time.perf_counter()
    with clock.attached(optimizer):
        while epoch <= last_epoch or time.perf_counter() - started < seconds:
            config = replace(SCHEDULE, epochs=epoch + 1)
            history = training.train(model, train_set, val_set, config,
                                     out_dir=out_dir, augment=clock.augment,
                                     optimizer=optimizer, start_epoch=epoch)
            losses[epoch] = history[0].train_loss
            epoch += 1
    return losses, time.perf_counter() - started


def training_state(model, optimizer) -> dict:
    state = {"param/" + name: p.data for name, p in model.named_parameters()}
    state.update(("buffer/" + name, b) for name, b in model.named_buffers())
    state.update(("vel/" + name, v) for name, v in optimizer.velocity.items())
    return state


def round_trips(path, model, optimizer) -> bool:
    """The checkpoint reloads parameters, buffers and velocity bit for bit."""
    ours = training_state(model, optimizer)
    theirs = training_state(*training.checkpoint_load(path)[:2])
    return ours.keys() == theirs.keys() and all(same_bits(ours[k], theirs[k]) for k in ours)


def train_workload(name: str, seed: int, seconds: float, trace: bool,
                   work_dir: Path) -> Outcome:
    cfg = TRAIN_WORKLOADS[name]
    outcome = Outcome()
    spec = zoo.ArchitectureSpec(cfg.variant, (1, 1, 1, 1), width_scale=cfg.width_scale,
                                num_classes=10, input_size=(3, 32, 32))
    resume_from = work_dir / "warmup" / "checkpoint.qx"
    setup = {"synthetic": [], "build": [], "load": []}
    train_set = val_set = model = optimizer = None
    for rep in range(SETUP_REPEATS):
        train_set = val_set = model = optimizer = None
        t0 = time.perf_counter()
        train_set = data.synthetic_classification_dataset(10, cfg.per_class, 32, seed=seed)
        val_set = data.synthetic_classification_dataset(
            10, max(1, cfg.per_class // 5), 32, seed=seed + 1, split="val")
        t1 = time.perf_counter()
        model = zoo.build(spec, seed=MODEL_SEED)
        t2 = time.perf_counter()
        if rep == 0:  # warm-up epoch 0 writes the checkpoint every repeat resumes from
            warm = training.SGDMomentum(model.named_parameters(), SCHEDULE.momentum,
                                        SCHEDULE.weight_decay)
            warm_loss = training.train(
                model, train_set, val_set, replace(SCHEDULE, epochs=1),
                out_dir=resume_from.parent, augment=data.AugmentationPolicy(),
                optimizer=warm)[0].train_loss
        t3 = time.perf_counter()
        model, optimizer, start_epoch = training.checkpoint_load(resume_from)
        setup["synthetic"].append(t1 - t0)
        setup["build"].append(t2 - t1)
        setup["load"].append(time.perf_counter() - t3)

    # loss_final: mean loss of the warm-up epoch and the first resumed one
    tracer = outcome.tracer = Tracer().install() if trace else None
    if tracer:
        tracer.name_groups(model)
    clock = StepClock(tracer)
    window = work_dir / "window"
    losses, elapsed = run_epochs(model, optimizer, train_set, val_set, start_epoch,
                                 start_epoch, seconds, window, clock)
    if tracer:
        tracer.uninstall()
    for step, loss in enumerate(clock.losses):
        outcome.check(bool(np.isfinite(loss)), f"step {step}: loss {loss}")

    setup_s = [sum(parts) for parts in zip(*setup.values())]
    loss_final = (warm_loss + losses[start_epoch]) / 2
    outcome.metrics = timing_metrics(setup_s, clock.fwd_ms, clock.step_ms,
                                     len(clock.step_ms) * SCHEDULE.batch_size, elapsed,
                                     loss_final)
    outcome.info["samples"] = {"fwd_ms": len(clock.fwd_ms), "step_ms": len(clock.step_ms),
                               "setup_s": len(setup_s), "epochs": len(losses)}
    if tracer:
        # the first resumed epoch again, untraced: tracing cost, and proof
        # that tracing leaves loss_final unchanged in every bit
        plain = StepClock()
        again, again_opt, again_epoch = training.checkpoint_load(resume_from)
        plain_losses, _ = run_epochs(again, again_opt, train_set, val_set, again_epoch,
                                     again_epoch, 0.0, work_dir / "untraced", plain)
        plain_final = (warm_loss + plain_losses[again_epoch]) / 2
        outcome.check(plain_final.hex() == loss_final.hex(),
                      f"traced loss_final {loss_final!r} != untraced {plain_final!r}")
        # one more epoch under tracemalloc, kept apart from the spans it would slow
        memory = StepClock(memory=True)
        tracemalloc.start()
        run_epochs(again, again_opt, train_set, val_set, again_epoch + 1, again_epoch + 1,
                   0.0, work_dir / "untraced", memory)
        tracemalloc.stop()
        layers = layer_metrics(tracer, memory.peaks, outcome)
        layers.update(setup_metrics(setup, model))
        layers["training.checkpoint_mb"] = (window / "checkpoint.qx").stat().st_size / 1e6
        layers["trace.overhead_ms"] = (percentile(clock.step_ms, 50)
                                       - percentile(plain.step_ms, 50))
        outcome.metrics = layers
    outcome.check(round_trips(window / "checkpoint.qx", model, optimizer),
                  "last checkpoint does not round-trip bit for bit")
    return outcome


WORKLOADS = {"infer224": infer224}
WORKLOADS.update({name: functools.partial(train_workload, name) for name in TRAIN_WORKLOADS})
