"""Flat key-value experiment configuration.

One ``key = value`` assignment per line, ``#`` comments, no nesting.  Every
key is declared in the schema with a type and (where sensible) a default;
unknown keys and missing required keys are hard errors so that a typo in a
threshold or patience value cannot silently corrupt an experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .anomaly import MAX_WINDOW
from .model import PriorSpec
from .posterior import SamplerSettings

__all__ = ["PipelineConfig", "parse_config", "load_config", "default_config_text"]

SCHEMA_VERSION = 1

_REQUIRED = object()


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


# key -> (parser, default); _REQUIRED means the key must be present.
_SCHEMA = {
    "schema_version": (int, _REQUIRED),
    "timestamp_column": (str, "datetime"),
    "machine_column": (str, ""),
    "machine_id": (str, ""),
    "indices": (_parse_str_list, _REQUIRED),
    "extra_covariates": (_parse_str_list, []),
    "experts": (int, 2),
    "mean_coeff_location": (float, 0.0),
    "mean_coeff_scale": (float, 1.0),
    "gate_coeff_location": (float, 0.0),
    "gate_coeff_scale": (float, 1.0),
    "noise_log_location": (float, 0.0),
    "noise_log_scale": (float, 1.0),
    "chains": (int, 4),
    "iterations": (int, 2000),
    "burn_in": (int, 1000),
    "target_acceptance": (float, 0.25),
    "window_k": (int, 5),
    "decay": (float, -1.0),  # negative means "use the default for window_k"
    "threshold": (float, 0.975),
    "patience": (int, 10),
    "quorum": (int, 1),
    "half_level": (_parse_bool, False),
    "validity_days": (_parse_int_list, [1, 2, 3, 4]),
    "margin_days": (float, 5.0),
    "subsample_fraction": (float, 0.1),
    "train_size": (int, 200),
    "validation_size": (int, 100),
    "seed": (int, 0),
}


@dataclass(frozen=True)
class PipelineConfig:
    schema_version: int
    timestamp_column: str
    machine_column: str
    machine_id: str
    indices: list
    extra_covariates: list
    experts: int
    mean_coeff_location: float
    mean_coeff_scale: float
    gate_coeff_location: float
    gate_coeff_scale: float
    noise_log_location: float
    noise_log_scale: float
    chains: int
    iterations: int
    burn_in: int
    target_acceptance: float
    window_k: int
    decay: float
    threshold: float
    patience: int
    quorum: int
    half_level: bool
    validity_days: list
    margin_days: float
    subsample_fraction: float
    train_size: int
    validation_size: int
    seed: int

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema_version {self.schema_version} is not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        if not self.indices:
            raise ValueError("at least one target index is required")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if not 0 <= self.window_k <= MAX_WINDOW - 1:
            raise ValueError(f"window_k must lie in [0, {MAX_WINDOW - 1}], got {self.window_k}")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError("subsample_fraction must lie in (0, 1]")
        if self.margin_days < 0:
            raise ValueError("margin_days must be non-negative")

    def prior_spec(self) -> PriorSpec:
        return PriorSpec(**{f.name: getattr(self, f.name) for f in fields(PriorSpec)})

    def sampler_settings(self, seed_offset: int = 0) -> SamplerSettings:
        shared = {f.name: getattr(self, f.name) for f in fields(SamplerSettings) if f.name != "seed"}
        return SamplerSettings(**shared, seed=self.seed + seed_offset)

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


def parse_config(text: str) -> PipelineConfig:
    """Parse and validate flat ``key = value`` configuration text."""
    seen = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate configuration key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            seen[key] = parser(raw_value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    values = {}
    for key, (_, default) in _SCHEMA.items():
        if key in seen:
            values[key] = seen[key]
        elif default is _REQUIRED:
            raise ValueError(f"missing required configuration key {key!r}")
        else:
            values[key] = list(default) if isinstance(default, list) else default
    return PipelineConfig(**values)


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def default_config_text(**overrides) -> str:
    """Config text with every key spelled out, for scaffolding runs."""
    values = {key: default for key, (_, default) in _SCHEMA.items() if default is not _REQUIRED}
    values["schema_version"] = SCHEMA_VERSION
    values["indices"] = ["hi_a", "hi_b"]
    values.update(overrides)
    lines = []
    for key in _SCHEMA:
        value = values[key]
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
