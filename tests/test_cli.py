import numpy as np
import pytest

from qaxial import cli, training
from qaxial.cli import main, run_grad_check_suite
from qaxial.training import (
    SGDMomentum,
    TrainConfig,
    TrainHistory,
    checkpoint_load,
    checkpoint_save,
    evaluate,
)
from qaxial.zoo import build, spec_for
from qaxial.data import Dataset, synthetic_classification_dataset, encode_cifar_records

SMOKE_DATA = "synthetic://classes=4,per_class=8,size=32,seed=0"


def smoke_config(tmp_path, epochs=2):
    config = TrainConfig(epochs=epochs, batch_size=8, base_lr=0.01,
                         warmup_epochs=1, decay_epochs=(), seed=3)
    path = tmp_path / "train.cfg"
    path.write_text(config.to_text())
    return path


def two_class_resnet_checkpoint(tmp_path):
    model = build(spec_for("resnet", 26, num_classes=2, input_size=(3, 32, 32)), seed=0)
    path = tmp_path / "two_class.qx"
    checkpoint_save(path, model, SGDMomentum(model.named_parameters()), 0)
    return path


class TestCountParams:
    def test_axial_26_within_tolerance_of_published(self, capsys):
        assert main(["count-params", "--variant", "axial", "--depth", "26"]) == 0
        out = capsys.readouterr().out
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert lines["layers"] == "26"
        assert abs(int(lines["params"]) - 5.7e6) <= 0.05 * 5.7e6

    def test_quat_layers_flag(self, capsys):
        assert main(["count-params", "--variant", "quat_axial", "--depth", "26",
                     "--quat-layers"]) == 0
        assert "layers: 34" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["count-params", "--variant", "axial", "--bogus"]) == 2

    def test_count_params_refuses_options_a_conv_family_ignores(self, capsys):
        code = main(["count-params", "--variant", "resnet", "--width-scale", "0.5",
                     "--heads", "3"])
        assert code == 1
        assert "'width_scale'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,key", [
        (["--variant", "axial", "--width-scale", "1e30"], "'width_scale'"),
        (["--variant", "resnet", "--classes", str(10 ** 30)], "'num_classes'"),
    ], ids=["width-1e30", "classes-1e30"])
    def test_count_params_refuses_sizes_numpy_cannot_allocate(self, flags, key, capsys):
        assert main(["count-params"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_count_params_takes_no_seed(self, capsys):
        # it builds without drawing values, so a seed could not change its output
        assert main(["count-params", "--variant", "resnet", "--seed", "1"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "missing.qx"),
                     "--data", SMOKE_DATA])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBadInputs:
    def test_non_integer_synthetic_value_exits_1(self, tmp_path, capsys):
        code = main(["train", "--variant", "resnet", "--data", "synthetic://classes=x",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'classes'" in err

    def test_repeated_synthetic_key_exits_1(self, tmp_path, capsys):
        code = main(["train", "--variant", "resnet", "--data",
                     "synthetic://classes=4,classes=5,per_class=2",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'classes'" in err
        assert not (tmp_path / "run").exists()

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("epochs = many\n")
        code = main(["train", "--variant", "resnet", "--data", SMOKE_DATA,
                     "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'epochs'" in err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_bytes(b"\xff\xfeepochs = 1\n")
        code = main(["train", "--variant", "resnet", "--data", SMOKE_DATA,
                     "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(config) in err and "UTF-8" in err
        assert not (tmp_path / "run").exists()

    def test_resume_with_non_utf8_history_exits_1(self, tmp_path, capsys):
        model = build(spec_for("resnet", 26, num_classes=2, input_size=(3, 32, 32)), seed=0)
        checkpoint = tmp_path / "epoch_1.qx"
        checkpoint_save(checkpoint, model, SGDMomentum(model.named_parameters()), 1)
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        (out_dir / "history.csv").write_bytes(
            TrainHistory.CSV_HEADER.encode() + b"\n0,0.01,1.0\xff,0.5,0.5,1.0\n")
        code = main(["train", "--variant", "resnet", "--resume", str(checkpoint),
                     "--data", "synthetic://classes=2,per_class=2,size=32,seed=0",
                     "--config", str(smoke_config(tmp_path)), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed history CSV" in err
        assert [p.name for p in out_dir.iterdir()] == ["history.csv"]  # nothing trained

    def test_resume_with_other_class_count_exits_1(self, tmp_path, capsys):
        spec = spec_for("resnet", 26, num_classes=2, input_size=(3, 32, 32))
        model = build(spec, seed=0)
        checkpoint = tmp_path / "two_class.qx"
        checkpoint_save(checkpoint, model, SGDMomentum(model.named_parameters()), 0)
        out_dir = tmp_path / "run"
        code = main(["train", "--variant", "resnet", "--resume", str(checkpoint),
                     "--data", "synthetic://classes=10,per_class=2,size=32,seed=0",
                     "--config", str(smoke_config(tmp_path)), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 classes" in err and "10" in err
        assert not out_dir.exists()  # rejected before any training

    def test_resume_with_flags_naming_another_architecture_exits_1(self, tmp_path,
                                                                    capsys):
        out_dir = tmp_path / "run"
        code = main(["train", "--variant", "quat_axial", "--depth", "50",
                     "--width-scale", "0.25", "--heads", "2",
                     "--resume", str(two_class_resnet_checkpoint(tmp_path)),
                     "--data", "synthetic://classes=2,per_class=2,size=32,seed=0",
                     "--config", str(smoke_config(tmp_path)), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'variant' differs" in err
        assert not out_dir.exists()  # rejected before any training

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_resume_with_nothing_left_to_train_exits_1(self, tmp_path, capsys, epochs):
        model = build(spec_for("resnet", 26, num_classes=2, input_size=(3, 32, 32)), seed=0)
        checkpoint = tmp_path / "epoch_2.qx"
        checkpoint_save(checkpoint, model, SGDMomentum(model.named_parameters()), 2)
        out_dir = tmp_path / "run"
        code = main(["train", "--variant", "resnet", "--resume", str(checkpoint),
                     "--data", "synthetic://classes=2,per_class=2,size=32,seed=0",
                     "--config", str(smoke_config(tmp_path, epochs)), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "trained 2 epochs" in err
        assert f"asks for {epochs}" in err
        assert not out_dir.exists()  # rejected before any training

    def test_eval_on_other_class_count_exits_1(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(two_class_resnet_checkpoint(tmp_path)),
                     "--data", "synthetic://classes=5,per_class=5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 classes" in err and "has 5" in err

    @pytest.mark.parametrize("argv,key", [
        (["count-params", "--variant", "resnet", "--classes", "0"], "classes"),
        (["bench", "--variant", "resnet", "--size", "0"], "'input_size'"),
        (["bench", "--variant", "resnet", "--repeat", "0"], "--repeat"),
        (["bench", "--variant", "resnet", "--batch", "0"], "--batch"),
    ], ids=["classes", "size", "repeat", "batch"])
    def test_zero_integer_flag_exits_1(self, argv, key, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("argv", [
        ["train", "--variant", "resnet", "--data", SMOKE_DATA, "--config", "seed.cfg"],
        ["train", "--variant", "resnet", "--data", SMOKE_DATA, "--seed", "-1"],
        ["train", "--variant", "resnet", "--data", "synthetic://classes=4,seed=-1"],
        ["bench", "--variant", "resnet", "--seed", "-1"],
        ["recon-demo", "--data", "synthetic://classes=2,per_class=5,size=8", "--seed", "-1"],
    ], ids=["config", "train", "synthetic", "bench", "recon-demo"])
    def test_negative_seed_exits_1(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.cfg").write_text("seed = -1\n")
        assert main(argv + (["--out", "run"] if argv[0] == "train" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'seed'" in err
        assert not (tmp_path / "run").exists()


class TestGradCheckCommand:
    def test_single_module_ok(self, capsys):
        assert main(["grad-check", "--module", "linear"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out and "ok" in out

    def test_unknown_module_fails(self, capsys):
        assert main(["grad-check", "--module", "nope"]) == 1

    def test_suite_covers_every_layer_type(self):
        names = [name for name, _ in run_grad_check_suite()]
        assert names == ["conv2d", "batch_norm2d", "relu", "softmax", "max_pool",
                         "linear", "cross_entropy", "quaternion_conv",
                         "quaternion_bank", "axial_1d", "axial_pair",
                         "quat_axial_bottleneck"]


class TestTrainEvalRoundTrip:
    def test_train_then_eval_agree_exactly(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["train", "--variant", "axial", "--width-scale", "0.25",
                     "--data", SMOKE_DATA, "--out", str(out_dir),
                     "--config", str(smoke_config(tmp_path)), "--no-augment"])
        assert code == 0
        history = TrainHistory.from_csv((out_dir / "history.csv").read_text())
        assert len(history) == 2

        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.qx"),
                     "--data", SMOKE_DATA]) == 0
        reported = float(capsys.readouterr().out.split("top1:")[1])
        assert reported == history.records[-1].val_top1  # exact, repr round-trip

    def test_resume_keeps_earlier_history(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        args = ["train", "--variant", "axial", "--width-scale", "0.25",
                "--data", SMOKE_DATA, "--out", str(out_dir), "--no-augment"]
        assert main(args + ["--config", str(smoke_config(tmp_path, 1))]) == 0
        first = TrainHistory.from_csv((out_dir / "history.csv").read_text())
        assert main(args + ["--config", str(smoke_config(tmp_path, 2)),
                            "--resume", str(out_dir / "checkpoint.qx")]) == 0
        history = TrainHistory.from_csv((out_dir / "history.csv").read_text())
        assert [r.epoch for r in history.records] == [0, 1]
        assert history.records[0] == first.records[0]

    def test_interrupted_run_resumes_with_whole_history(self, tmp_path, monkeypatch,
                                                       capsys):
        def run(out_dir, *extra):
            return main(["train", "--variant", "axial", "--width-scale", "0.25",
                         "--data", SMOKE_DATA, "--out", str(out_dir), "--no-augment",
                         "--config", str(smoke_config(tmp_path, 3)), *extra])

        def rows(out_dir):  # every column but the wall time
            history = TrainHistory.from_csv((out_dir / "history.csv").read_text())
            return [(r.epoch, r.lr, r.train_loss, r.train_top1, r.val_top1)
                    for r in history.records]

        assert run(tmp_path / "whole") == 0
        save = training.checkpoint_save

        def cut_at_third_save(path, model, optimizer, epoch):
            if epoch == 3:
                raise KeyboardInterrupt
            save(path, model, optimizer, epoch)

        out_dir = tmp_path / "cut"
        monkeypatch.setattr(training, "checkpoint_save", cut_at_third_save)
        with pytest.raises(KeyboardInterrupt):
            run(out_dir)
        monkeypatch.undo()
        # history is written before each checkpoint: epoch 2 is in it, the
        # checkpoint is still the one after epoch 1
        assert [r[0] for r in rows(out_dir)] == [0, 1, 2]
        assert checkpoint_load(out_dir / "checkpoint.qx")[2] == 2
        assert run(out_dir, "--resume", str(out_dir / "checkpoint.qx")) == 0
        assert rows(out_dir) == rows(tmp_path / "whole")

    def test_eval_deterministic_without_augmentation(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        main(["train", "--variant", "resnet", "--data", SMOKE_DATA,
              "--out", str(out_dir), "--config", str(smoke_config(tmp_path, 1)),
              "--no-augment"])
        model, _, _ = checkpoint_load(out_dir / "checkpoint.qx")
        data = synthetic_classification_dataset(4, 8, 32, seed=0)
        assert evaluate(model, data) == evaluate(model, data)


class TestBench:
    def test_bench_reports_stats_and_deterministic_macs(self, capsys):
        assert main(["bench", "--variant", "axial", "--width-scale", "0.25",
                     "--batch", "1", "--repeat", "3", "--size", "32"]) == 0
        first = capsys.readouterr().out
        assert "mean" in first and "std" in first
        macs_1 = [l for l in first.splitlines() if "MACs" in l]
        assert main(["bench", "--variant", "axial", "--width-scale", "0.25",
                     "--batch", "1", "--repeat", "3", "--size", "32"]) == 0
        second = capsys.readouterr().out
        macs_2 = [l for l in second.splitlines() if "MACs" in l]
        assert macs_1 == macs_2  # flop counts never vary, wall time may


class TestSubsampleCommand:
    def test_writes_manifest(self, tmp_path, capsys):
        for cls in ("a", "b"):
            d = tmp_path / "tree" / cls
            d.mkdir(parents=True)
            for i in range(4):
                (d / f"{i}.ppm").write_bytes(b"")
        assert main(["subsample", "--root", str(tmp_path / "tree"),
                     "--per-class", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 files" in out

    @pytest.mark.parametrize("per_class", ["0", "-1"])
    def test_per_class_below_one_exits_1(self, tmp_path, capsys, per_class):
        (tmp_path / "tree" / "a").mkdir(parents=True)
        (tmp_path / "tree" / "a" / "0.ppm").write_bytes(b"")
        assert main(["subsample", "--root", str(tmp_path / "tree"),
                     "--per-class", per_class]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "per_class" in err
        assert not (tmp_path / "tree" / "manifest.txt").exists()

    def test_empty_root_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["subsample", "--root", str(tmp_path / "empty")]) == 1


class TestReconDemo:
    def test_runs_and_reports_both_mses(self, capsys):
        assert main(["recon-demo", "--data",
                     "synthetic://classes=4,per_class=10,size=8,seed=0",
                     "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "quaternion test MSE" in out and "real test MSE" in out

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_epochs_below_one_exits_1(self, capsys, epochs):
        code = main(["recon-demo", "--data",
                     "synthetic://classes=4,per_class=10,size=8,seed=0", "--epochs", epochs])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "epochs must be >= 1" in captured.err
        assert captured.out == ""  # no MSE and no verdict from an untrained pair

    def test_diverging_run_exits_1_without_a_verdict(self, capsys, monkeypatch):
        data = synthetic_classification_dataset(4, 10, 8, seed=0)
        scaled = Dataset(data.images * 300, data.labels, data.class_count)
        monkeypatch.setattr(cli, "load_dataset", lambda path: (scaled, None))
        with np.errstate(all="ignore"):  # the overflow warnings would be errors
            code = main(["recon-demo", "--data", "scaled", "--epochs", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "diverged" in captured.err
        assert captured.out == ""


class TestCifarViaCli:
    def test_train_on_cifar_dir(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        images = rng.random((16, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, size=16).astype(np.int64)
        (tmp_path / "data_batch_1.bin").write_bytes(encode_cifar_records(images, labels))
        (tmp_path / "test_batch.bin").write_bytes(encode_cifar_records(images[:8], labels[:8]))
        out_dir = tmp_path / "run"
        code = main(["train", "--variant", "resnet", "--data", str(tmp_path),
                     "--out", str(out_dir), "--config", str(smoke_config(tmp_path, 1))])
        assert code == 0
        assert (out_dir / "history.csv").exists()
