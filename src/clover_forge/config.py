"""Run configuration: an INI file with flat key/value sections.

Every CLI flag overrides its config key; the config path itself can come from
the CLOVER_CONFIG environment variable. Price rates are configuration, never
code, since vendor pricing drifts.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .errors import ConfigError

CONFIG_ENV = "CLOVER_CONFIG"

DEFAULTS = {
    "core": {
        "seed": "0",
        "output_dir": "out",
        "created_at": "",
    },
    "paths": {
        "corpus": "",
        "templates": "",
        "fixtures": "",
    },
    "corpus": {
        "min_words": "25",
    },
    "backend": {
        "mode": "mock",
        "endpoint": "",
        "dialect": "openai-chat",
        "model": "gpt-3.5-turbo",
        "rate_in_usd_per_1k": "0.0015",
        "rate_out_usd_per_1k": "0.002",
        "max_concurrency": "4",
        "max_retries": "5",
        "backoff_base_s": "1.0",
        "max_completion_tokens": "512",
    },
    "generation": {
        "budget_usd": "8.00",
        "strict_parse": "false",
    },
}


@dataclass
class Config:
    seed: int
    output_dir: Path
    created_at: str
    corpus_path: str
    templates_path: str
    fixtures_path: str
    min_words: int
    backend_mode: str
    endpoint: str
    dialect: str
    model: str
    rate_in_usd_per_1k: Decimal
    rate_out_usd_per_1k: Decimal
    max_concurrency: int
    max_retries: int
    backoff_base_s: float
    max_completion_tokens: int
    budget_usd: Decimal
    strict_parse: bool


def _as_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"config key {key} must be a boolean, got '{raw}'")


def _as_decimal(raw: str, key: str) -> Decimal:
    try:
        return Decimal(raw)
    except InvalidOperation as exc:
        raise ConfigError(f"config key {key} must be a decimal, got '{raw}'") from exc


def load_config(path: str | Path | None = None) -> Config:
    """Build a validated Config from defaults, an optional file, and the env."""
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is None:
        env_path = os.environ.get(CONFIG_ENV, "")
        path = env_path or None
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser.read(path, encoding="utf-8")

    def get(section: str, key: str) -> str:
        try:
            return parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError) as exc:
            raise ConfigError(f"missing config key [{section}] {key}") from exc

    config = Config(
        seed=int(get("core", "seed")),
        output_dir=Path(get("core", "output_dir")),
        created_at=get("core", "created_at"),
        corpus_path=get("paths", "corpus"),
        templates_path=get("paths", "templates"),
        fixtures_path=get("paths", "fixtures"),
        min_words=int(get("corpus", "min_words")),
        backend_mode=get("backend", "mode"),
        endpoint=get("backend", "endpoint"),
        dialect=get("backend", "dialect"),
        model=get("backend", "model"),
        rate_in_usd_per_1k=_as_decimal(get("backend", "rate_in_usd_per_1k"), "rate_in_usd_per_1k"),
        rate_out_usd_per_1k=_as_decimal(get("backend", "rate_out_usd_per_1k"), "rate_out_usd_per_1k"),
        max_concurrency=int(get("backend", "max_concurrency")),
        max_retries=int(get("backend", "max_retries")),
        backoff_base_s=float(get("backend", "backoff_base_s")),
        max_completion_tokens=int(get("backend", "max_completion_tokens")),
        budget_usd=_as_decimal(get("generation", "budget_usd"), "budget_usd"),
        strict_parse=_as_bool(get("generation", "strict_parse"), "strict_parse"),
    )
    validate_config(config)
    return config


def validate_config(config: Config) -> None:
    if config.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if config.budget_usd < 0:
        raise ConfigError("budget_usd must be >= 0")
    if config.max_concurrency < 1:
        raise ConfigError("max_concurrency must be >= 1")
    if config.backend_mode not in ("live", "mock"):
        raise ConfigError(f"backend mode must be live or mock, got '{config.backend_mode}'")
    if config.backend_mode == "live" and not config.endpoint:
        raise ConfigError("live backend mode requires a non-empty endpoint")
