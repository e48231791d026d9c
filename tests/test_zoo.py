import re

import numpy as np
import pytest

from qaxial.autodiff import Tensor, no_grad
from qaxial.errors import ConfigurationError, ShapeError
from qaxial.zoo import (
    ArchitectureSpec,
    build,
    count_layers,
    count_params,
    spec_for,
    spec_from_text,
    spec_to_text,
    summarize,
)

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
        ("resnet", "input_size = 3x-4x-4"),
    ])
    def test_text_out_of_range_value_names_key(self, variant, line):
        key = line.split()[0]
        text = SPEC_TEXT.replace("quat_axial", variant)
        text = re.sub(f"^{key} = .*$", line, text, flags=re.M)
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            spec_from_text(text)

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

    def test_deterministic_build(self):
        a = build(small_spec("axial"), seed=7)
        b = build(small_spec("axial"), seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
