"""Flat key=value runtime configuration.

Precedence: built-in defaults, then the config file, then CKQG_* environment
variables, then explicit command-line overrides. Unknown keys are rejected at
every layer so typos fail loudly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .corpus import RESERVED

ENV_PREFIX = "CKQG_"


class ConfigError(Exception):
    pass


@dataclass
class Config:
    # model
    hidden_size: int = 600
    layers: int = 2
    emb_dim: int = 100
    feat_dim: int = 8
    dropout: float = 0.3
    # vocabulary
    vocab_size: int = 5000
    min_freq: int = 1
    # optimization
    lr: float = 0.001
    batch_size: int = 16
    grad_clip: float = 5.0
    itf_n: int = 3000
    itf_cycles: int = 3
    eval_every: int = 500
    ckpt_keep: int = 10
    avg_k: int = 5
    seed: int = 13
    # generation
    beam: int = 10
    max_len: int = 30
    length_penalty: float = 0.7

    def validate(self) -> None:
        positive = ("hidden_size", "layers", "emb_dim", "feat_dim", "min_freq",
                    "batch_size", "itf_n", "itf_cycles", "eval_every",
                    "ckpt_keep", "avg_k", "beam", "max_len")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size <= len(RESERVED):
            raise ConfigError(f"vocab_size must exceed the {len(RESERVED)} reserved ids, "
                              f"got {self.vocab_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("dropout", "lr", "grad_clip", "length_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.lr <= 0 or self.grad_clip <= 0:
            raise ConfigError("lr and grad_clip must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_TYPES = {f.name: f.type for f in fields(Config)}


def _convert(key: str, raw: str):
    if key not in _TYPES:
        raise ConfigError(f"unknown config key '{key}'")
    kind = _TYPES[key]
    try:
        return int(raw) if kind in ("int", int) else float(raw)
    except ValueError:
        raise ConfigError(f"bad value for '{key}': {raw!r}") from None


def parse_config_file(path: str) -> dict[str, str]:
    """key = value lines; # comments and blanks ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            out[key] = value
    return out


def load_config(path: str | None = None, overrides: dict[str, str] | None = None,
                env: dict[str, str] | None = None) -> Config:
    cfg = Config()
    layers: list[dict[str, str]] = []
    if path is not None:
        layers.append(parse_config_file(path))
    env = os.environ if env is None else env
    env_layer = {}
    for key, value in env.items():
        if key.startswith(ENV_PREFIX):
            env_layer[key[len(ENV_PREFIX):].lower()] = value
    layers.append(env_layer)
    if overrides:
        layers.append(dict(overrides))
    for layer in layers:
        for key, raw in layer.items():
            setattr(cfg, key, _convert(key, str(raw)))
    cfg.validate()
    return cfg
