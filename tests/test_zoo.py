import hashlib
import re

import numpy as np
import pytest

from qaxial import autodiff as ad
from qaxial.autodiff import Tensor, no_grad
from qaxial.errors import ConfigurationError, ShapeError
from qaxial.zoo import (
    MAX_CHANNELS,
    ArchitectureSpec,
    build,
    count_layers,
    count_params,
    spec_for,
    spec_from_text,
    spec_to_text,
    summarize,
)

from oracles import pool_argmax

# published sizes: (variant, depth) -> (params, tolerance)
PUBLISHED_COUNTS = {
    ("resnet", 26): (13.6e6, 0.03),
    ("resnet", 35): (18.5e6, 0.03),
    ("resnet", 50): (25.5e6, 0.03),
    ("quat_resnet", 26): (15.1e6, 0.05),
    ("quat_resnet", 35): (20.5e6, 0.05),
    ("quat_resnet", 50): (27.6e6, 0.05),
    ("axial", 26): (5.7e6, 0.05),
    ("axial", 35): (8.4e6, 0.05),
    ("axial", 50): (11.5e6, 0.05),
    ("quat_axial", 26): (6.0e6, 0.07),
    ("quat_axial", 50): (11.9e6, 0.07),
}


# written by spec_to_text before it moved onto qaxial.fields; checkpoints hold it
SPEC_TEXT = """\
variant = quat_axial
multipliers = 1,2,4,1
width_scale = 0.25
num_classes = 10
input_size = 3x32x32
heads = 8
"""


def small_spec(variant, **overrides):
    defaults = dict(block_multipliers=(1, 1, 1, 1), num_classes=10,
                    input_size=(3, 32, 32))
    if variant in ("axial", "quat_axial"):
        defaults["width_scale"] = 0.25
    defaults.update(overrides)
    return ArchitectureSpec(variant, **defaults)


class TestSpec:
    def test_depth_lookup(self):
        assert spec_for("axial", 26).block_multipliers == (1, 2, 4, 1)
        assert spec_for("resnet", 35).block_multipliers == (2, 3, 4, 2)
        assert spec_for("quat_axial", 50).block_multipliers == (3, 4, 6, 3)
        with pytest.raises(ConfigurationError):
            spec_for("resnet", 18)

    def test_default_width_scale_by_variant(self):
        assert spec_for("resnet", 26).width_scale == 1.0
        assert spec_for("axial", 26).width_scale == 0.5

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec("vgg")
        with pytest.raises(ConfigurationError):
            ArchitectureSpec("resnet", block_multipliers=(0, 1, 1, 1))
        with pytest.raises(ConfigurationError):
            ArchitectureSpec("axial", input_size=(3, 224, 112))
        with pytest.raises(ConfigurationError):
            ArchitectureSpec("axial", width_scale=0.3)  # widths not head-divisible

    @pytest.mark.parametrize("variant", ["resnet", "quat_resnet"])
    @pytest.mark.parametrize("key,value", [("width_scale", 0.5), ("heads", 3)])
    def test_conv_families_refuse_what_they_ignore(self, variant, key, value):
        # neither value changes a conv model, so accepting one would record
        # it in the spec text of a model built without it
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            ArchitectureSpec(variant, **{key: value})
        text = re.sub(f"^{key} = .*$", f"{key} = {value}",
                      spec_to_text(ArchitectureSpec(variant)), flags=re.M)
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            spec_from_text(text)
        ArchitectureSpec(variant, width_scale=1.0, heads=8)  # what they build with

    def test_text_round_trip(self):
        spec = spec_for("quat_axial", 26, num_classes=10, input_size=(3, 32, 32),
                        width_scale=0.25)
        assert spec_from_text(spec_to_text(spec)) == spec

    def test_text_is_pinned(self):
        spec = spec_for("quat_axial", 26, num_classes=10, input_size=(3, 32, 32),
                        width_scale=0.25)
        assert spec_to_text(spec) == SPEC_TEXT

    @pytest.mark.parametrize("text,key", [
        (SPEC_TEXT.replace("heads = 8", "heads = eight"), "heads"),
        (SPEC_TEXT + "colour = red\n", "colour"),
        (SPEC_TEXT + "# again\nheads = 4\n", "heads"),
        (SPEC_TEXT.replace("heads = 8", "heads 8"), "heads 8"),
    ], ids=["bad-value", "unknown", "repeated", "no-equals"])
    def test_text_bad_line_names_key(self, text, key):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            spec_from_text(text)

    def test_text_missing_key_names_key(self):
        with pytest.raises(ConfigurationError, match="'heads'"):
            spec_from_text(SPEC_TEXT.replace("heads = 8\n", ""))

    @pytest.mark.parametrize("variant,line", [
        ("axial", "heads = 0"), ("resnet", "heads = -2"), ("quat_resnet", "heads = 0"),
        ("quat_axial", "heads = -1"), ("axial", "width_scale = nan"),
        ("axial", "width_scale = inf"), ("resnet", "width_scale = nan"),
        ("resnet", "width_scale = -3"), ("quat_resnet", "width_scale = 0"),
        ("resnet", "input_size = 3x0x0"), ("quat_resnet", "input_size = 3x0x0"),
        ("axial", "input_size = 3x0x0"), ("quat_axial", "input_size = 3x0x0"),
        ("resnet", "input_size = 3x-4x-4"), ("resnet", "num_classes = 1"),
        ("axial", "multipliers = 1,2,0,1"), ("axial", "width_scale = 1e308"),
        ("axial", "width_scale = 1e30"), ("axial", "width_scale = 1e6"),
        ("quat_axial", "width_scale = 8.5"),
        ("resnet", "num_classes = 1000000000000000000000000000000"),
        ("axial", "num_classes = 16385"),
    ])
    def test_text_out_of_range_value_names_key(self, variant, line):
        key = line.split()[0]
        text = SPEC_TEXT.replace("quat_axial", variant)
        text = re.sub(f"^{key} = .*$", line, text, flags=re.M)
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            spec_from_text(text)

    def test_widest_layer_and_class_count_may_reach_the_cap(self):
        # validated only: a model at the cap holds over a billion weights
        assert max(ArchitectureSpec("quat_axial", width_scale=8.0).group_plan()[-1]) \
            == MAX_CHANNELS
        assert ArchitectureSpec("resnet", num_classes=MAX_CHANNELS).num_classes \
            == MAX_CHANNELS

    def test_stem_spatial(self):
        assert spec_for("axial", 26).stem_spatial() == (56, 56)
        assert spec_for("resnet", 26).stem_spatial() == (56, 56)
        assert small_spec("axial").stem_spatial() == (8, 8)


class TestLayerCounting:
    @pytest.mark.parametrize("mults,expected", [
        ((1, 2, 4, 1), 26), ((2, 3, 4, 2), 35), ((3, 4, 6, 3), 50)])
    def test_counts_without_quaternion(self, mults, expected):
        for variant in ("resnet", "quat_resnet", "axial", "quat_axial"):
            spec = ArchitectureSpec(variant, mults)
            assert count_layers(spec) == expected

    def test_quat_axial_50_counts_66_with_banks(self):
        spec = spec_for("quat_axial", 50)
        assert count_layers(spec, include_quaternion=True) == 66

    def test_quat_axial_26_counts_34_with_banks(self):
        # 26 + 8 banks = 34 by the same arithmetic that yields 66 for the
        # 50-layer model ([1,2,4,1] has 8 bottlenecks); the commonly quoted
        # 33 for this family is inconsistent with that rule.
        spec = spec_for("quat_axial", 26)
        assert count_layers(spec, include_quaternion=True) == 34

    def test_include_flag_is_noop_for_other_variants(self):
        spec = spec_for("axial", 26)
        assert count_layers(spec, include_quaternion=True) == 26


class TestPublishedParameterCounts:
    @pytest.mark.parametrize("variant,depth", sorted(PUBLISHED_COUNTS))
    def test_reproduces_published_count(self, variant, depth):
        target, tol = PUBLISHED_COUNTS[(variant, depth)]
        model = build(spec_for(variant, depth))
        got = count_params(model)
        assert abs(got - target) <= tol * target, \
            f"{variant}-{depth}: {got / 1e6:.3f}M vs {target / 1e6:.1f}M +-{tol:.0%}"

    def test_quat_axial_equals_axial_plus_bank_channels(self):
        for depth in (26, 50):
            axial = build(spec_for("axial", depth))
            quat = build(spec_for("quat_axial", depth))
            plan = spec_for("axial", depth).group_plan()
            bank_total = sum(m * mult for (m, _), mult in
                             zip(plan, spec_for("axial", depth).block_multipliers))
            assert count_params(quat) == count_params(axial) + bank_total

    def test_removing_banks_recovers_axial_count(self):
        quat = build(spec_for("quat_axial", 26))
        removed = 0
        for group in quat.groups:
            for block in group:
                removed += block.bank.param_count()
                block.bank = None
        assert count_params(quat) == count_params(build(spec_for("axial", 26)))
        assert removed == 64 + 2 * 128 + 4 * 256 + 512


class TestForwardShapes:
    def test_resnet_logits_shape(self):
        model = build(small_spec("resnet")).eval()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32))
        with no_grad():
            out = model(x)
        assert out.shape == (2, 10)

    @pytest.mark.parametrize("variant", ["quat_resnet", "axial", "quat_axial"])
    def test_variant_forward(self, variant):
        model = build(small_spec(variant)).eval()
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32))
        with no_grad():
            out = model(x)
        assert out.shape == (1, 10)

    def test_group_boundary_sizes_match_published_table(self):
        """112 -> 56 -> 56/28/14/7 through the four groups at 224 input."""
        model = build(spec_for("axial", 26)).eval()
        rows = summarize(model)
        by_name = {name: shape for name, shape, _ in rows}
        assert by_name["stem_conv"][2:] == (112, 112)
        assert by_name["stem_pool"][2:] == (56, 56)
        # last op of each group's final block carries the group output size
        assert by_name["groups.0.0.bn_expand"][2:] == (56, 56)
        assert by_name["groups.1.1.bn_expand"][2:] == (28, 28)
        assert by_name["groups.2.3.bn_expand"][2:] == (14, 14)
        assert by_name["groups.3.0.bn_expand"][2:] == (7, 7)
        assert by_name["classifier"] == (1, 1000)

    def test_wrong_input_shape_raises(self):
        model = build(small_spec("resnet"))
        with pytest.raises(ShapeError):
            with no_grad():
                model(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))


class TestTrainingStepTape:
    """One criterion-9 training step: quat_axial (1,1,1,1), width 0.25, 32 px,
    batch 10."""

    def batch(self):
        rng = np.random.default_rng(3)
        return (rng.normal(size=(10, 3, 32, 32)).astype(np.float32),
                np.arange(10) % 10)

    def tape_nodes(self, variant):
        x, labels = self.batch()
        loss = ad.cross_entropy(build(small_spec(variant))(Tensor(x)), labels)
        seen, todo, ops = set(), [loss], 0
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ops += bool(node._parents)
            todo.extend(node._parents)
        return ops

    def test_tape_op_node_count(self):
        # each axial layer records 3 projection matmuls, one axial_attention
        # node and the output matmul; the composed attention recorded 392
        # nodes here, and 172 while the layer split and merged its heads
        # with four reshape nodes
        assert self.tape_nodes("quat_axial") == 140

    def test_quat_resnet_tape_op_node_count(self):
        # each quaternion conv records conv2d on its spread weight, and the
        # spread (signed_blocks) where N*Ho*Wo >= q_out; 73 while the layer
        # reshaped the spread weight into a 4-D one with its own node
        assert self.tape_nodes("quat_resnet") == 65

    def test_nan_pixel_gives_non_finite_logits(self):
        # train-mode batch norm spreads one NaN over its channel; relu must
        # pass it on rather than zero it, or the loss stays finite (ln 10)
        x, _ = self.batch()
        x[0, 0, 0, 0] = np.nan
        logits = build(small_spec("quat_axial"))(Tensor(x)).data
        assert not np.isfinite(logits).all()


class TestSummarize:
    def test_rows_sum_to_count_params(self):
        model = build(small_spec("quat_axial"))
        rows = summarize(model)
        assert sum(p for _, _, p in rows) == count_params(model)

    def test_axial_26_lists_eight_bottlenecks(self):
        model = build(spec_for("axial", 26))
        rows = summarize(model)
        block_ids = {".".join(name.split(".")[:3]) for name, _, _ in rows
                     if name.startswith("groups.")}
        assert len(block_ids) == 8

    def test_bank_rows_have_channel_sized_counts(self):
        model = build(small_spec("quat_axial"))
        bank_rows = [(name, p) for name, _, p in summarize(model) if "bank" in name]
        plan = model.spec.group_plan()
        assert [p for _, p in bank_rows] == [m for m, _ in plan]

    def test_leaves_no_attribute_on_any_module(self):
        model = build(small_spec("quat_axial"))
        before = {name: set(vars(mod)) for name, mod in model.named_modules()}
        summarize(model)
        assert {name: set(vars(mod)) for name, mod in model.named_modules()} == before

    # sha256 of repr(rows) at batch 2
    @pytest.mark.parametrize("variant,digest", [
        ("resnet", "fdf01603293caaad3ce0d88c998cbff774bb0267a67b5411cbfd9207cafd553f"),
        ("quat_resnet", "ace1088642d177dcc4eef22a06595f26684ee5526ba45477c3efdc26dbb2de32"),
        ("axial", "c40ad736cd2c5a1f5babf6f143ea75da5a7623c1595310dbf51dcd7f535e5e44"),
        ("quat_axial", "97bfd397562df0599ba0a2d309ae019c51a1509c3d8f5cccf02ef4ba148e2c15"),
    ])
    def test_rows_are_pinned(self, variant, digest):
        rows = summarize(build(small_spec(variant)), batch_size=2)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    # sha256 over every parameter and buffer (name, then bytes) at seed 5; the
    # quaternion rows were taken when each layer held four tensors w_r..w_k,
    # stacked on axis 1 as <layer>.weight, and the axial rows when each
    # attention layer also held a rel_index buffer, left out of the digest
    @pytest.mark.parametrize("variant,digest", [
        ("resnet", "0ae4fc12e3c7e411faa560d2224474fc940e6beddb38fa55d7b6bcc5aa370e86"),
        ("quat_resnet", "70c77184ff1b5301daffcd1e7523c6773a287848d7dfff012d88c4bb1609c7de"),
        ("axial", "bd66aa96bd318ec7e4f1416f24581e8015e798edf0405f5c2d5a4314041836ab"),
        ("quat_axial", "d2b410879ed18feeb6ecc464779a4de59d6849ed39aeb6680ef82c3b863d8194"),
    ])
    def test_built_values_are_pinned(self, variant, digest):
        model = build(small_spec(variant), seed=5)
        h = hashlib.sha256()
        for name, arr in [(n, p.data) for n, p in model.named_parameters()] \
                + list(model.named_buffers()):
            h.update(name.encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    @staticmethod
    def step_bits(variant):
        """One forward and backward of ``variant`` (1,1,1,1) at seed 2 on a
        fixed batch of 4: the loss bits and sha256 over every gradient (name,
        then bytes).  The bits depend on the BLAS build, as criterion 9's do."""
        model = build(small_spec(variant), seed=2)
        x = np.random.default_rng(4).normal(size=(4, 3, 32, 32)).astype(np.float32)
        loss = ad.cross_entropy(model(Tensor(x)), np.array([0, 3, 7, 9]))
        ad.backward(loss)
        h = hashlib.sha256()
        for name, p in model.named_parameters():
            h.update(name.encode())
            h.update(p.grad.tobytes())
        return float(loss.data).hex(), h.hexdigest()

    # taken when each quaternion conv picked its GEMM side by N*Ho*Wo
    # against q_out
    def test_quat_resnet_step_is_pinned(self):
        assert self.step_bits("quat_resnet") == (
            "0x1.5ce66a0000000p+1",
            "cc4cc9c02797b465379028547910039ae486ab6d2c4b08864075c0ecd7f90b14")

    # taken while each attention layer split its heads with reshape nodes
    # and held its position index as a buffer
    def test_quat_axial_step_is_pinned(self):
        assert self.step_bits("quat_axial") == (
            "0x1.04d83c0000000p+1",
            "a748d6b31ee7aa425bca4737d2eab6d6c7c137b79013f1656492e8c77c5a8194")

    def test_quat_axial_224_inference_is_pinned(self, monkeypatch):
        """The paper's inference setting: ``quat_axial``-26 at seed 0, eval
        mode, no_grad, one fixed 224-px image.  Pins sha256 and the first
        value of the classifier's input, which every attention span, pool
        and bank of the net feed.  The logits themselves are not pinned: at
        batch 1 the classifier is a gemv, which OpenBLAS rounds differently
        with its thread count.  The bits depend on the BLAS build, as
        criterion 9's do."""
        model = build(spec_for("quat_axial", 26), seed=0).eval()
        x = np.random.default_rng(224).normal(size=(1, 3, 224, 224)).astype(np.float32)
        features = []
        classify = model.classifier.forward
        monkeypatch.setattr(model.classifier, "forward",
                            lambda t: features.append(t.data) or classify(t))
        with no_grad():
            logits = model(Tensor(x)).data
        assert logits.shape == (1, 1000) and np.isfinite(logits).all()
        (pooled,) = features
        assert (hashlib.sha256(pooled.tobytes()).hexdigest(), float(pooled[0, 0]).hex()) == (
            "4485ea2df6f6f99ea9b92b6996668e5907693e119e7d43b0e4a502c2c7dda378",
            "0x1.e954540000000p+0")

    def test_negative_seed_is_refused(self):
        with pytest.raises(ConfigurationError, match="'seed'"):
            build(small_spec("resnet"), seed=-1)

    def test_deterministic_build(self):
        a = build(small_spec("axial"), seed=7)
        b = build(small_spec("axial"), seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)


class TestWholeModelGradient:
    """The loss's derivative along one unit-norm random direction over all
    parameters, backward against central differences: each family at 32 px,
    batch 2, in float64 and train mode."""

    EPS = 1e-6
    # frozen from a first run, whose largest relative error over the four
    # families was 6.5e-7 (quat_axial; resnet 1.4e-7); dropping the r_k
    # gradient of axial_attention gives 8e-3, and skipping one placement in
    # signed_blocks' backward 0.18
    TOLERANCE = 5e-6

    @pytest.mark.parametrize("variant", ("resnet", "quat_resnet", "axial", "quat_axial"))
    def test_directional_derivative(self, variant, monkeypatch):
        model = build(small_spec(variant), seed=0).to_dtype(np.float64)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        labels = np.array([1, 7])
        params = list(model.parameters())
        direction = [rng.normal(size=p.shape) for p in params]
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction))
        direction = [d / norm for d in direction]

        # a ReLU mask or pool argmax that differs between the two probes
        # means the segment crosses a kink, where differences do not converge
        kinks = []
        relu, max_pool2d = ad.relu, ad.max_pool2d

        def recording_relu(a):
            kinks.append(~(a.data <= 0))
            return relu(a)

        def recording_max_pool2d(a, kernel, stride):
            kinks.append(pool_argmax(a.data, kernel, stride))
            return max_pool2d(a, kernel, stride)

        monkeypatch.setattr(ad, "relu", recording_relu)
        monkeypatch.setattr(ad, "max_pool2d", recording_max_pool2d)

        ad.backward(ad.cross_entropy(model(x), labels))
        # a parameter that received no gradient contributes zero
        analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, direction)
                       if p.grad is not None)

        start = [p.data for p in params]
        probes = []
        for sign in (1.0, -1.0):
            for p, p0, d in zip(params, start, direction):
                p.data = p0 + sign * self.EPS * d
            kinks.clear()
            with no_grad():
                loss = float(ad.cross_entropy(model(x), labels).data)
            probes.append((loss, list(kinks)))
        (plus, kinks_plus), (minus, kinks_minus) = probes
        assert len(kinks_plus) == len(kinks_minus) > 0
        for i, (a, b) in enumerate(zip(kinks_plus, kinks_minus)):
            assert np.array_equal(a, b), f"kink {i} crossed between the probes"
        numeric = (plus - minus) / (2 * self.EPS)
        error = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
        assert error < self.TOLERANCE, (analytic, numeric, error)
