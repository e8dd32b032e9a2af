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
from dataclasses import MISSING, dataclass, field, fields

from .anomaly import MAX_WINDOW, exp_weights
from .detection import AlarmPolicy, PoolingPolicy
from .model import PriorSpec
from .posterior import SamplerSettings

__all__ = ["PipelineConfig", "SplitSpec", "parse_config", "load_config", "default_config_text"]

SCHEMA_VERSION = 1


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_str_list(raw: str) -> list:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_int_list(raw: str) -> list:
    return [int(item) for item in _parse_str_list(raw)]


# Field annotation -> parser of the key's raw text.
_PARSERS = {
    "int": int,
    "float": float,
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
            raise ValueError(
                f"config schema_version {self.schema_version} is not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        if not self.indices:
            raise ValueError("at least one target index is required")
        if self.experts < 1:
            raise ValueError("experts must be at least 1")
        if not 0 <= self.window_k <= MAX_WINDOW - 1:
            raise ValueError(f"window_k must lie in [0, {MAX_WINDOW - 1}], got {self.window_k}")
        if not self.validity_days or min(self.validity_days) < 1:
            raise ValueError("validity_days must list at least one positive length")
        # Every other key is checked by the object of the stage that consumes it.
        if self.decay >= 0:
            exp_weights(self.window_k + 1, self.decay)
        self.prior_spec()
        self.sampler_settings()
        self.split_spec()
        AlarmPolicy(self.threshold, self.patience)
        PoolingPolicy(self.quorum, self.half_level)

    def prior_spec(self) -> PriorSpec:
        return PriorSpec(**{f.name: getattr(self, f.name) for f in fields(PriorSpec)})

    def sampler_settings(self, seed_offset: int = 0) -> SamplerSettings:
        shared = {f.name: getattr(self, f.name) for f in fields(SamplerSettings) if f.name != "seed"}
        return SamplerSettings(**shared, seed=self.seed + seed_offset)

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            margin_days=self.margin_days,
            fraction=self.subsample_fraction,
            train_size=self.train_size,
            validation_size=self.validation_size,
        )

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
    seen = {}
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
    for key, f in schema.items():
        if key not in seen and _default(f) is MISSING:
            raise ValueError(f"missing required configuration key {key!r}")
    return PipelineConfig(**seen)


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def default_config_text(**overrides) -> str:
    """Config text with every key spelled out, for scaffolding runs."""
    values = {"schema_version": SCHEMA_VERSION, "indices": ["hi_a", "hi_b"], **overrides}
    lines = []
    for f in fields(PipelineConfig):
        value = values.get(f.name, _default(f))
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
