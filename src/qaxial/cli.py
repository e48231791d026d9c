"""Command-line surface.

Subcommands: count-params, train, eval, grad-check, bench, subsample,
recon-demo.  Unknown flags exit 2 with a usage message; runtime failures
exit 1 with a one-line error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fields
from .autodiff import Tensor, grad_check
from .axial import (
    AxialAttention1D,
    AxialPairModule,
    axial_flop_count,
    full_attention_flop_count,
)
from .data import (
    AugmentationPolicy,
    load_cifar10_binary,
    load_ppm_dir,
    write_per_class_manifest,
    synthetic_classification_dataset,
)
from .errors import ConfigurationError, QaxialError
from .quaternion import QuaternionBank1x1, QuaternionConv2d
from .recon import color_reconstruction_experiment
from .training import (
    SGDMomentum,
    TrainConfig,
    TrainHistory,
    checkpoint_load,
    evaluate,
    train,
)
from .zoo import (
    ArchitectureSpec,
    AxialBottleneck,
    build,
    count_layers,
    count_params,
    spec_for,
)

GRAD_CHECK_THRESHOLD = 1e-4


def load_dataset(path: str):
    """CIFAR-10 batch directory, directory of .ppm files, or synthetic://."""
    if path.startswith("synthetic://"):
        defaults = {"classes": 10, "per_class": 50, "size": 32, "seed": 0}
        spec = path[len("synthetic://"):].replace(",", "\n")
        params = fields.read(spec, dict.fromkeys(defaults, int), defaults)
        data = synthetic_classification_dataset(**params, split="train")
        held = synthetic_classification_dataset(
            params["classes"], max(1, params["per_class"] // 5),
            params["size"], seed=params["seed"] + 1, split="val")
        return data, held
    directory = Path(path)
    if list(directory.glob("data_batch_*")):
        return load_cifar10_binary(directory)
    return load_ppm_dir(directory), None


def _model_spec(args, data=None) -> ArchitectureSpec:
    overrides = {}
    if args.width_scale is not None:
        overrides["width_scale"] = args.width_scale
    if data is not None:
        overrides["num_classes"] = data.class_count
        overrides["input_size"] = tuple(data.images.shape[1:])
    if getattr(args, "classes", None) is not None:
        overrides["num_classes"] = args.classes
    if getattr(args, "size", None) is not None:
        overrides["input_size"] = (3, args.size, args.size)
    return spec_for(args.variant, args.depth, heads=args.heads, **overrides)


def cmd_count_params(args) -> int:
    spec = _model_spec(args)
    layers = count_layers(spec, include_quaternion=args.quat_layers)
    model = build(spec, seed=args.seed)
    print(f"layers: {layers}")
    print(f"params: {count_params(model)}")
    return 0


def cmd_train(args) -> int:
    train_data, val_data = load_dataset(args.data)
    config = TrainConfig.from_text(Path(args.config).read_text()) \
        if args.config else TrainConfig()
    if args.resume:
        model, optimizer, start_epoch = checkpoint_load(args.resume)
        if model.spec.num_classes != train_data.class_count:
            raise ConfigurationError(
                f"checkpoint {args.resume} predicts {model.spec.num_classes} classes "
                f"but {args.data} has {train_data.class_count}")
    else:
        model = build(_model_spec(args, train_data), seed=args.seed)
        optimizer = SGDMomentum(model.named_parameters(), config.momentum,
                                config.weight_decay, config.decay_bn_params)
        start_epoch = 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    augment = None if args.no_augment else AugmentationPolicy()
    history_path = out_dir / "history.csv"
    earlier = TrainHistory.from_csv(history_path.read_text()).records \
        if start_epoch and history_path.exists() else []
    history = train(model, train_data, val_data, config, out_dir=out_dir,
                    augment=augment, optimizer=optimizer, start_epoch=start_epoch)
    history.records[:0] = [r for r in earlier if r.epoch < start_epoch]  # not replayed
    history_path.write_text(history.to_csv())
    if history.records:
        last = history.records[-1]
        print(f"epoch {last.epoch}: train_loss {last.train_loss:.4f} "
              f"train_top1 {last.train_top1:.4f} val_top1 {last.val_top1:.4f}")
    print(f"history: {history_path}")
    print(f"checkpoint: {out_dir / 'checkpoint.qx'}")
    return 0


def cmd_eval(args) -> int:
    model, _, _ = checkpoint_load(args.checkpoint)
    data, held = load_dataset(args.data)
    split = held if args.split == "val" and held is not None else data
    print(f"top1: {evaluate(model, split)!r}")  # repr: exact round-trip
    return 0


def _grad_check_suite(rng: np.random.Generator):
    """(name, function, inputs) triple per layer type, all float64-ready."""
    def t(shape, scale=1.0, seed=None):
        local = np.random.default_rng(seed) if seed is not None else rng
        return Tensor(local.normal(0, scale, size=shape))

    suite = []
    proj = t((2, 3, 4, 4), seed=100)
    suite.append(("conv2d", lambda x, w, b: (
        ad.conv2d(x, w, b, stride=1, padding=1) * proj).sum(),
        [t((2, 2, 4, 4)), t((3, 2, 3, 3), 0.5), t((3,))]))

    rm, rv = np.zeros(3), np.ones(3)
    proj_bn = t((2, 3, 3, 3), seed=101)
    suite.append(("batch_norm2d", lambda x, g, b: (
        ad.batch_norm2d(x, g, b, rm.copy(), rv.copy(), True) * proj_bn).sum(),
        [t((2, 3, 3, 3)), t((3,), 0.5), t((3,))]))

    offset = 0.5
    suite.append(("relu", lambda x: (ad.relu(x + offset) * ad.relu(x + offset)).sum(),
                  [Tensor(rng.uniform(0.2, 1.0, (3, 3)) * rng.choice([-1.0, 1.0], (3, 3)))]))
    suite.append(("softmax", lambda x: (ad.softmax(x, -1) * ad.softmax(x, -1)).sum(),
                  [t((3, 5))]))
    suite.append(("max_pool", lambda x: (ad.max_pool2d(x, 2, 2)
                                         * ad.max_pool2d(x, 2, 2)).sum(),
                  [t((1, 2, 4, 4))]))
    suite.append(("linear", lambda x, w, b: (ad.linear(x, w, b)
                                             * ad.linear(x, w, b)).sum(),
                  [t((3, 4)), t((2, 4)), t((2,))]))
    labels = np.array([0, 2, 1])
    suite.append(("cross_entropy", lambda x: ad.cross_entropy(x, labels),
                  [t((3, 4))]))

    def module_case(name, module, x, proj, inputs=None):
        # the module's own parameters are checked in place
        suite.append((name, lambda *_: (module(x) * proj).sum(),
                      inputs or [x] + list(module.parameters())))

    qconv = QuaternionConv2d(8, 8, 3, padding=1, rng=np.random.default_rng(7))
    module_case("quaternion_conv", qconv, t((2, 8, 3, 3), seed=102),
                t((2, 8, 3, 3), seed=103), list(qconv.components()))
    module_case("quaternion_bank", QuaternionBank1x1(8, rng=np.random.default_rng(8)),
                t((2, 8, 2, 2), seed=105), t((2, 8, 2, 2), seed=104))
    module_case("axial_1d", AxialAttention1D(8, span=3, heads=2,
                                             rng=np.random.default_rng(9)),
                t((2, 8, 3), seed=107), t((2, 8, 3), seed=106))
    module_case("axial_pair", AxialPairModule(8, 2, 2, heads=2,
                                              rng=np.random.default_rng(10)),
                t((1, 8, 2, 2), seed=109), t((1, 8, 2, 2), seed=108))
    module_case("quat_axial_bottleneck",
                AxialBottleneck(8, 8, 16, span=2, downsample=False, heads=2,
                                quat_bank=True, rng=np.random.default_rng(11)),
                t((2, 8, 2, 2), seed=111), t((2, 16, 2, 2), seed=110))
    return suite


def run_grad_check_suite(module: str | None = None, eps: float = 1e-5):
    """Yields (name, max_relative_error) for each requested layer type."""
    rng = np.random.default_rng(42)
    for name, fn, inputs in _grad_check_suite(rng):
        if module is not None and module != name:
            continue
        yield name, grad_check(fn, inputs, eps=eps)


def cmd_grad_check(args) -> int:
    worst = 0.0
    matched = False
    for name, err in run_grad_check_suite(args.module):
        matched = True
        status = "ok" if err < GRAD_CHECK_THRESHOLD else "FAIL"
        print(f"{name:24s} max_rel_err {err:.3e}  {status}")
        worst = max(worst, err)
    if not matched:
        raise QaxialError(f"no grad-check target named {args.module!r}")
    print(f"worst: {worst:.3e} (threshold {GRAD_CHECK_THRESHOLD:.0e})")
    return 0 if worst < GRAD_CHECK_THRESHOLD else 1


def cmd_bench(args) -> int:
    for flag in ("batch", "repeat"):
        if getattr(args, flag) < 1:
            raise ConfigurationError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    spec = _model_spec(args)
    model = build(spec, seed=args.seed).eval()
    x = Tensor(np.random.default_rng(0)
               .normal(size=(args.batch, *spec.input_size)).astype(np.float32))
    with ad.no_grad():
        model(x)  # warm-up
    times = []
    for _ in range(args.repeat):
        started = time.perf_counter()
        with ad.no_grad():
            model(x)
        times.append(time.perf_counter() - started)
    times_ms = np.asarray(times) * 1e3
    print(f"forward latency over {args.repeat} runs (batch {args.batch}): "
          f"mean {times_ms.mean():.2f} ms  std {times_ms.std():.2f} ms")
    if spec.is_axial:
        shapes = [(m.height, m.width, m.height_attention.channels, m.height_attention.heads)
                  for _, m in model.named_modules() if isinstance(m, AxialPairModule)]
        print(f"attention-core MACs (axial): {sum(axial_flop_count(*s) for s in shapes)}")
        print("attention-core MACs (dense 2-D equivalent): "
              f"{sum(full_attention_flop_count(*s) for s in shapes)}")
    return 0


def cmd_subsample(args) -> int:
    manifest = write_per_class_manifest(args.root, per_class=args.per_class,
                                      manifest_path=args.manifest)
    lines = manifest.read_text().splitlines()
    files = sum(1 for ln in lines if not ln.startswith("#"))
    warnings = sum(1 for ln in lines if ln.startswith("#"))
    print(f"manifest: {manifest} ({files} files, {warnings} warnings)")
    return 0


def cmd_recon_demo(args) -> int:
    data, _ = load_dataset(args.data)
    quat_mse, real_mse = color_reconstruction_experiment(
        data, epochs=args.epochs, seed=args.seed)
    print(f"quaternion test MSE: {quat_mse:.6f}")
    print(f"real test MSE:       {real_mse:.6f}")
    print("quaternion reconstructs held-out color better"
          if quat_mse < real_mse else
          "real network scored better on this run")
    return 0


def _add_model_args(parser, with_depth=True):
    parser.add_argument("--variant", required=True,
                        choices=("resnet", "quat_resnet", "axial", "quat_axial"))
    if with_depth:
        parser.add_argument("--depth", type=int, default=26, choices=(26, 35, 50))
    parser.add_argument("--width-scale", type=float, default=None)
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaxial",
        description="Quaternion-enhanced axial-attention residual networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-params", help="print layer and parameter counts")
    _add_model_args(p)
    p.add_argument("--quat-layers", action="store_true",
                   help="count quaternion banks as layers")
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("train", help="train a model, writing history and checkpoints")
    _add_model_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None)
    p.add_argument("--no-augment", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="top-1 accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference gradient suite")
    p.add_argument("--module", default=None)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("bench", help="forward latency and attention MAC counts")
    _add_model_args(p)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("subsample", help="write a first-N-per-class manifest")
    p.add_argument("--root", required=True)
    p.add_argument("--per-class", type=int, default=300)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("recon-demo", help="quaternion vs real gray-to-color demo")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_recon_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QaxialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
