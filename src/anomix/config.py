"""Flat key-value experiment configuration.

One ``key = value`` assignment per line, ``#`` comments, no nesting.  The
fields of :class:`PipelineConfig` are the schema: each key's type is its
field's annotation and its default the field's default, and a field without
a default is a required key.  Unknown keys, missing required keys and
invalid values are hard errors when the file loads, so that a typo in a
threshold or patience value cannot silently corrupt an experiment.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields

from .anomaly import MAX_WINDOW, _window_dist
from .detection import AlarmPolicy, PoolingPolicy
from .model import PriorSpec
from .posterior import SamplerSettings

__all__ = ["PipelineConfig", "SplitSpec", "parse_config", "load_config"]

SCHEMA_VERSION = 1


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_str_list(raw: str) -> list:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_int_list(raw: str) -> list:
    return [int(item) for item in _parse_str_list(raw)]


# Field annotation -> parser of the key's raw text.
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "bool": _parse_bool,
    "list[str]": _parse_str_list,
    "list[int]": _parse_int_list,
}


@dataclass(frozen=True)
class SplitSpec:
    margin_days: float = 5.0
    fraction: float = 0.1
    train_size: int = 200
    validation_size: int = 100

    def __post_init__(self):
        if self.margin_days < 0:
            raise ValueError("margin_days must be non-negative")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        if self.train_size < 1 or self.validation_size < 0:
            raise ValueError("split sizes must be positive")


class _BadValue(ValueError):
    """A value refused at load, naming the config keys the refusal rests on."""

    def __init__(self, keys, reason):
        self.keys = keys
        names = ", ".join(repr(key) for key in keys)
        super().__init__(f"bad value{'s' if len(keys) > 1 else ''} for {names}: {reason}")


@contextmanager
def _naming(*keys):
    """Report a ``ValueError`` raised inside as a refusal of ``keys``."""
    try:
        yield
    except ValueError as exc:
        raise _BadValue(keys, exc) from None


# Config key -> (the class that consumes it, its field there).  At load each
# key is checked by building its consumer from that key alone, the other
# fields at their defaults, so that a refusal names exactly the key it rests
# on; keys that a consumer checks against each other are checked together.
_CONSUMERS = {
    **{f.name: (PriorSpec, f.name) for f in fields(PriorSpec)},
    **{f.name: (SamplerSettings, f.name) for f in fields(SamplerSettings)},
    "margin_days": (SplitSpec, "margin_days"),
    "subsample_fraction": (SplitSpec, "fraction"),
    "train_size": (SplitSpec, "train_size"),
    "validation_size": (SplitSpec, "validation_size"),
    "threshold": (AlarmPolicy, "threshold"),
    "patience": (AlarmPolicy, "patience"),
    "quorum": (PoolingPolicy, "quorum"),
    "half_level": (PoolingPolicy, "half_level_enabled"),
}
_JOINT_KEYS = (("iterations", "burn_in"),)


# Field order is the canonical text's order, so it fixes every config hash.
@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    schema_version: int
    timestamp_column: str = "datetime"
    machine_column: str = ""
    machine_id: str = ""
    indices: list[str]
    extra_covariates: list[str] = field(default_factory=list)
    experts: int = 2
    mean_coeff_location: float = 0.0
    mean_coeff_scale: float = 1.0
    gate_coeff_location: float = 0.0
    gate_coeff_scale: float = 1.0
    noise_log_location: float = 0.0
    noise_log_scale: float = 1.0
    chains: int = 4
    iterations: int = 2000
    burn_in: int = 1000
    target_acceptance: float = 0.25
    window_k: int = 5
    decay: float = -1.0  # negative means "use the default for window_k"
    threshold: float = 0.975
    patience: int = 10
    quorum: int = 1
    half_level: bool = False
    validity_days: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    margin_days: float = 5.0
    subsample_fraction: float = 0.1
    train_size: int = 200
    validation_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            reason = f"schema_version {self.schema_version} is not supported (expected {SCHEMA_VERSION})"
            raise _BadValue(("schema_version",), reason)
        if not self.indices:
            raise _BadValue(("indices",), "at least one target index is required")
        if self.experts < 1:
            raise _BadValue(("experts",), "experts must be at least 1")
        if not 0 <= self.window_k <= MAX_WINDOW - 1:
            raise _BadValue(("window_k",), f"window_k must lie in [0, {MAX_WINDOW - 1}], got {self.window_k}")
        if not self.validity_days or min(self.validity_days) < 1:
            raise _BadValue(("validity_days",), "validity_days must list at least one positive length")
        repeated = [d for d in self.validity_days if self.validity_days.count(d) > 1]
        if repeated:  # the detection report would print that length's row twice
            raise _BadValue(("validity_days",), f"validity length {repeated[0]} is listed more than once")
        if bool(self.machine_column) != bool(self.machine_id):
            raise _BadValue(("machine_column", "machine_id"), "the two are set together or not at all")
        # One column under two roles, or twice in one, would be read as two columns.
        named = [("timestamp_column", self.timestamp_column), ("machine_column", self.machine_column)]
        named += [("indices", c) for c in self.indices] + [("extra_covariates", c) for c in self.extra_covariates]
        columns = [c for _, c in named if c]
        repeated = [c for c in columns if columns.count(c) > 1]
        if repeated:
            keys = tuple(dict.fromkeys(key for key, c in named if c == repeated[0]))
            raise _BadValue(keys, f"column {repeated[0]!r} is named more than once")
        # Every other key is checked by the object of the stage that consumes it.
        if self.decay >= 0:
            # The window's sum law is built here, once per process, so that a
            # decay its table cannot serve is refused before the fit runs: only
            # a decay past the walk's 106-bit bound builds the table now.
            with _naming("window_k", "decay"):
                _window_dist(self.window_k + 1, self.decay)
        singles = [(key,) for key in _CONSUMERS if not any(key in group for group in _JOINT_KEYS)]
        for keys in [*singles, *_JOINT_KEYS]:
            consumer = _CONSUMERS[keys[0]][0]
            with _naming(*keys):
                consumer(**{_CONSUMERS[key][1]: getattr(self, key) for key in keys})

    def _consumer(self, consumer):
        """``consumer`` built from the config keys it reads."""
        values = {name: getattr(self, key) for key, (cls, name) in _CONSUMERS.items() if cls is consumer}
        return consumer(**values)

    def prior_spec(self) -> PriorSpec:
        return self._consumer(PriorSpec)

    def sampler_settings(self) -> SamplerSettings:
        return self._consumer(SamplerSettings)

    def split_spec(self) -> SplitSpec:
        return self._consumer(SplitSpec)

    def effective_decay(self) -> float | None:
        return None if self.decay < 0 else self.decay

    def canonical_text(self) -> str:
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            parts.append(f"{f.name}={value}")
        return "\n".join(parts)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _default(f):
    """A field's default value; ``MISSING`` for a required key."""
    return f.default_factory() if f.default_factory is not MISSING else f.default


def parse_config(text: str) -> PipelineConfig:
    """Parse and validate flat ``key = value`` configuration text."""
    schema = {f.name: f for f in fields(PipelineConfig)}
    seen, lines = {}, {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ValueError(f"line {lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate configuration key {key!r}")
        try:
            seen[key] = _PARSERS[schema[key].type](raw_value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    for key, f in schema.items():
        if key not in seen and _default(f) is MISSING:
            raise ValueError(f"missing required configuration key {key!r}")
    try:
        return PipelineConfig(**seen)
    except _BadValue as exc:
        where = [str(lines[key]) for key in exc.keys if key in lines]
        raise ValueError(f"line{'s' if len(where) > 1 else ''} {', '.join(where)}: {exc}") from None


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return parse_config(fh.read())
