"""Property tests: a parser of ``key = value`` text either returns a value
that passes its own checks or raises a ``QaxialError``, never anything else.

Each example starts from valid text and overwrites some keys with drawn
values, so both valid and refused inputs come up.  Hypothesis runs
derandomized with a fixed example budget, so the examples are the same
on every run.
"""

from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaxial import fields
from qaxial.errors import QaxialError
from qaxial.training import TrainConfig
from qaxial.zoo import MAX_CHANNELS, SPEC_CASTS, VARIANTS, spec_from_text, spec_to_text

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                             database=None)

VALUES = st.one_of(
    st.integers(-3, 1 << 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e308", "-0.0", "5e-324", "nan", "1_000", "", "yes", "on"]),
    st.lists(st.integers(-2, 80), max_size=5).map(lambda v: ",".join(map(str, v))),
    st.lists(st.integers(-2, 300), max_size=4).map(lambda v: "x".join(map(str, v))),
    st.sampled_from(VARIANTS),
    st.text(max_size=6),
)


@PROPERTY_SETTINGS
@given(variant=st.sampled_from(VARIANTS),
       overrides=st.dictionaries(st.sampled_from(list(SPEC_CASTS) + ["colour"]), VALUES,
                                 max_size=3))
@example(variant="axial", overrides={"width_scale": "1e308"})
@example(variant="axial", overrides={"heads": "0"})
@example(variant="quat_axial", overrides={"width_scale": "nan"})
@example(variant="resnet", overrides={"input_size": "3x0x0"})
@example(variant="axial", overrides={"width_scale": "1e30"})
@example(variant="resnet", overrides={"num_classes": "1000000000000000000000000000000"})
def test_spec_from_text_returns_a_valid_spec_or_refuses(variant, overrides):
    axial = variant in ("axial", "quat_axial")
    base = {"variant": variant, "multipliers": "1,1,1,1",
            "width_scale": 0.25 if axial else 1.0, "num_classes": 10,
            "input_size": "3x32x32", "heads": 8}
    try:
        spec = spec_from_text(fields.write({**base, **overrides}))
    except QaxialError:
        return
    spec.validate()
    widths = [spec.stem_channels()] + [c for pair in spec.group_plan() for c in pair]
    assert max(widths + [spec.num_classes]) <= MAX_CHANNELS  # a size build can allocate
    assert spec_from_text(spec_to_text(spec)) == spec


@PROPERTY_SETTINGS
@given(overrides=st.dictionaries(st.sampled_from(list(asdict(TrainConfig())) + ["lr"]),
                                 VALUES, max_size=3))
@example(overrides={"seed": "-1"})
@example(overrides={"base_lr": "nan"})
@example(overrides={"decay_epochs": "50,20"})
@example(overrides={"weight_decay": "-5"})
def test_train_config_from_text_returns_a_valid_config_or_refuses(overrides):
    try:
        config = TrainConfig.from_text(fields.write(overrides))
    except QaxialError:
        return
    assert TrainConfig.from_text(config.to_text()) == config
