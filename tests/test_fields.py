import pytest

from qaxial import fields
from qaxial.errors import ConfigurationError

CASTS = {"size": int, "name": str}


def test_comments_blank_lines_and_spaces_are_skipped():
    text = "# header\n\n  size=3  \n   # indented comment\nname =  a b \n"
    assert fields.read(text, CASTS, {}) == {"size": 3, "name": "a b"}


def test_defaults_fill_absent_keys_only():
    assert fields.read("size = 3", CASTS, {"size": 1, "name": "x"}) == \
        {"size": 3, "name": "x"}


@pytest.mark.parametrize("text,message", [
    ("size = 3\nname", "line 'name'"),
    ("size = 3\nname = a\nshape = 2", "unknown key 'shape'"),
    ("size = 3\nname = a\nsize = 3", "repeated key 'size'"),
    ("size = three\nname = a", "key 'size': bad value 'three'"),
    ("size = 3", "missing key 'name'"),
])
def test_malformed_text_names_the_key(text, message):
    with pytest.raises(ConfigurationError, match=message):
        fields.read(text, CASTS, {})


def test_write_reads_back():
    text = fields.write({"size": 3, "name": "a"})
    assert text == "size = 3\nname = a\n"
    assert fields.read(text, CASTS, {}) == {"size": 3, "name": "a"}
