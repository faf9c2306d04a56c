import math

import pytest

from anchormesh import CodecConfig
from anchormesh.config import load_config, parse_fields
from anchormesh.synth import SequenceSpec


def _write(tmp_path, text):
    path = tmp_path / "codec.cfg"
    path.write_text(text)
    return path


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, "# a codec config\n\n   \nlevel = 3  # trailing comment\n"
                            "# alpha = 99\n\t\n")
    assert load_config(path) == CodecConfig(level=3)


def test_empty_file_gives_the_defaults(tmp_path):
    assert load_config(_write(tmp_path, "")) == CodecConfig()


@pytest.mark.parametrize("raw,value", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("False", False), ("no", False), ("off", False),
])
def test_every_bool_spelling(tmp_path, raw, value):
    path = _write(tmp_path, f"qem_refine = {raw}\n")
    assert load_config(path, CodecConfig(qem_refine=not value)).qem_refine is value


def test_each_field_kind(tmp_path):
    path = _write(tmp_path, "collapses_per_anchor=4\nalpha = 2.5\ndelta=-0.25\n"
                            "alpha_ladder = 1, 2.5 ,4,\nadaptive_quant = no\n")
    config = load_config(path)
    assert config.collapses_per_anchor == 4 and isinstance(config.collapses_per_anchor, int)
    assert config.alpha == 2.5 and config.delta == -0.25
    assert config.alpha_ladder == (1.0, 2.5, 4.0)
    assert config.adaptive_quant is False
    assert config == CodecConfig(collapses_per_anchor=4, alpha=2.5, delta=-0.25,
                                 alpha_ladder=(1.0, 2.5, 4.0), adaptive_quant=False)


def test_unknown_key_reports_path_and_line(tmp_path):
    path = _write(tmp_path, "# header\nlevel = 2\nalfa = 3\n")
    with pytest.raises(ValueError, match=f"^{path}:3: unknown config key 'alfa'"):
        load_config(path)


def test_line_without_equals_reports_path_and_line(tmp_path):
    path = _write(tmp_path, "\nlevel 2\n")
    with pytest.raises(ValueError, match=f"^{path}:2: expected key=value"):
        load_config(path)


@pytest.mark.parametrize("raw", ["maybe", "2", ""])
def test_bad_boolean_raises(tmp_path, raw):
    path = _write(tmp_path, f"motion_estimation = {raw}\n")
    with pytest.raises(ValueError, match=f"^{path}:1: bad boolean for motion_estimation"):
        load_config(path)


def test_bad_number_raises(tmp_path):
    path = _write(tmp_path, "level = 2.5\n")
    with pytest.raises(ValueError, match=f"^{path}:1: "):
        load_config(path)
    path = _write(tmp_path, "alpha_ladder = 8, x\n")
    with pytest.raises(ValueError, match=f"^{path}:1: "):
        load_config(path)


@pytest.mark.parametrize("text,line,message", [
    ("alpha_ladder =\n", 1, "the alpha ladder is empty"),
    ("level = 3\nthreads = 0\n", 2, "threads must be at least 1"),
    ("level = 256\n", 1, "level must be in 0..255, got 256"),
    ("alpha = 2\nbase_fraction = inf\n", 2, "base_fraction must be in"),
    ("base_fraction = 0\n", 1, "base_fraction must be in"),
    ("level = 3\ncollapses_per_anchor = 0\n", 2, "collapses_per_anchor must be at least 1, got 0"),
    ("collapses_per_anchor = -3\n", 1, "collapses_per_anchor must be at least 1, got -3"),
    ("leaf_capacity = 0\n", 1, "leaf_capacity must be at least 1, got 0"),
    ("max_depth = -5\n", 1, "max_depth must be at least 0, got -5"),
    ("alpha = -1\n", 1, "alpha must be > 0"),
    ("hbar = 0\n", 1, "hbar must be > 0"),
    ("delta = nan\n", 1, "alpha, delta and hbar must be finite"),
], ids=["empty-ladder", "zero-threads", "level-256", "infinite-fraction", "zero-fraction",
        "zero-collapses", "negative-collapses", "zero-leaf-capacity", "negative-max-depth",
        "negative-alpha", "zero-hbar", "nan-delta"])
def test_rejected_value_reports_path_and_line(tmp_path, text, line, message):
    path = _write(tmp_path, text)
    with pytest.raises(ValueError, match=f"^{path}:{line}: {message}"):
        load_config(path)


@pytest.mark.parametrize("field,value", [
    ("level", -1), ("level", 256), ("base_fraction", 0.0), ("base_fraction", -1.0),
    ("base_fraction", 1.5), ("base_fraction", math.inf), ("base_fraction", math.nan),
])
def test_level_and_base_fraction_out_of_range_raise(field, value):
    # the level is one byte of the payload, and a base is a fraction of its frame
    with pytest.raises(ValueError, match=f"^{field} must be in "):
        CodecConfig().override(**{field: value})


def test_level_and_base_fraction_bounds_are_accepted():
    for level in (0, 255):
        assert CodecConfig(level=level).level == level
    for fraction in (1.0, 1e-9):
        assert CodecConfig(base_fraction=fraction).base_fraction == fraction


def test_layers_over_the_given_base(tmp_path):
    base = CodecConfig(level=4, alpha=16.0, threads=2)
    config = load_config(_write(tmp_path, "alpha = 4\nlevel = 1\n"), base)
    assert config == CodecConfig(level=1, alpha=4.0, threads=2)
    assert base == CodecConfig(level=4, alpha=16.0, threads=2)  # left as it was


def test_later_lines_win(tmp_path):
    assert load_config(_write(tmp_path, "level = 1\nlevel = 5\n")).level == 5


def test_a_value_takes_its_kind_from_the_field_not_from_the_base(tmp_path):
    # a base built with alpha=8 holds an int; the field is a float all the
    # same, and 8.5 once failed as a malformed int
    config = load_config(_write(tmp_path, "alpha = 8.5\n"), CodecConfig(alpha=8))
    assert config == CodecConfig(alpha=8.5)


def test_parse_fields_reads_strings_by_the_declared_default():
    # the rule of config lines, for any dataclass: strings parsed, other
    # values kept, None and names that are not fields left out
    given = {"shape": " cube ", "velocity": "1, 0,2", "rate": "0.5", "seed": "7",
             "topology_jitter": True, "frames": None, "out": "somewhere"}
    assert parse_fields(SequenceSpec, given) == {
        "shape": "cube", "velocity": (1.0, 0.0, 2.0), "rate": 0.5, "seed": 7,
        "topology_jitter": True}
    with pytest.raises(ValueError, match="^bad integer for frames: 'two'$"):
        parse_fields(SequenceSpec, {"frames": "two"})
