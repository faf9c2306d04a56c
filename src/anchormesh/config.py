"""Codec configuration: every tunable default in one place, overridable from
flat key=value config files and CLI flags, both read by :func:`parse_fields`."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .octree import DEFAULT_LEAF_CAPACITY, DEFAULT_MAX_DEPTH
from .quantize import DEFAULT_HBAR, QuantizationParams


@dataclass(frozen=True)
class CodecConfig:
    level: int = 2                     # subdivision levels
    alpha: float = 8.0                 # quantization scale
    delta: float = 0.0                 # quantization offset
    hbar: float = DEFAULT_HBAR         # valence normalizer
    motion_estimation: bool = True     # neighbor-mean motion compensation
    qem_refine: bool = True            # fine anchor stage
    adaptive_quant: bool = True        # valence-weighted quantization
    collapses_per_anchor: int = 1
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY
    max_depth: int = DEFAULT_MAX_DEPTH
    base_fraction: float = 0.25        # decimation ratio for sweep base meshes
    alpha_ladder: tuple = (1.0, 2.0, 4.0, 8.0, 16.0)
    threads: int = 1                   # sweep worker processes

    def __post_init__(self):
        if not 0 <= self.level <= 255:  # the payload's level byte
            raise ValueError(f"level must be in 0..255, got {self.level}")
        QuantizationParams(self.alpha, self.delta, self.hbar)  # the quantizer's own checks
        if self.collapses_per_anchor < 1:
            raise ValueError(f"collapses_per_anchor must be at least 1, "
                             f"got {self.collapses_per_anchor}")
        if self.leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be at least 1, got {self.leaf_capacity}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be at least 0, got {self.max_depth}")
        if not 0.0 < self.base_fraction <= 1.0:
            raise ValueError(f"base_fraction must be in (0, 1], got {self.base_fraction}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if not self.alpha_ladder:
            raise ValueError("the alpha ladder is empty")
        if not all(0.0 < alpha < math.inf for alpha in self.alpha_ladder):
            raise ValueError(f"every alpha of the ladder must be positive and finite, "
                             f"got {self.alpha_ladder}")
        if len(set(self.alpha_ladder)) != len(self.alpha_ladder):
            raise ValueError(f"the alpha ladder repeats an alpha: {self.alpha_ladder}")

    def override(self, **kwargs) -> "CodecConfig":
        return replace(self, **kwargs)


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_KIND_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
               tuple: "list of numbers"}


def _parse_value(name: str, kind, raw: str):
    """``raw`` read as a value of type ``kind`` (a tuple is of floats) for the field ``name``."""
    raw = raw.strip()
    if kind not in _KIND_NAMES:
        raise ValueError(f"unsupported config field type for {name}")
    try:
        if kind is bool:
            return _BOOLS[raw.lower()]
        if kind is tuple:
            return tuple(float(part) for part in raw.split(",") if part.strip())
        return kind(raw)
    except (KeyError, ValueError):
        raise ValueError(f"bad {_KIND_NAMES[kind]} for {name}: {raw!r}") from None


def parse_fields(cls, given) -> dict:
    """The fields of the dataclass ``cls`` that ``given`` (name -> value)
    sets, a value of ``None`` setting none: the one rule for config-file
    lines and command-line flags alike. A string is read as the type of its
    field's declared default, a tuple as comma-separated floats and a bool
    as 1/0, true/false, yes/no or on/off; any other value is kept as it is.
    Names that are not fields of ``cls`` are left out."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    return {name: _parse_value(name, kinds[name], value) if isinstance(value, str) else value
            for name, value in given.items() if name in kinds and value is not None}


def load_config(path, base: CodecConfig = None) -> CodecConfig:
    """Parse a flat key=value file ('#' comments allowed) over ``base``.

    Each line is applied in turn, so a value that :class:`CodecConfig`
    rejects is reported with its ``path:line``, as a malformed line is."""
    config = base if base is not None else CodecConfig()
    names = {f.name for f in fields(CodecConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in names:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                config = config.override(**parse_fields(CodecConfig, {key: value}))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return config
