"""Run configuration: one table of settings, read from an INI file.

Each setting is a `Config` field whose default is the program's default and
whose type is the type a file value is parsed as; `SECTIONS` gives the INI
section of each key. CLI flags that override a key carry the key's name and are
merged over the file once, before validation. The config path itself can come
from the CLOVER_CONFIG environment variable. Price rates are configuration,
never code, since vendor pricing drifts.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .backends import DEFAULT_MAX_COMPLETION_TOKENS, RetryPolicy
from .corpus import DEFAULT_MIN_WORDS
from .errors import ConfigError
from .generate import DEFAULT_BUDGET_USD, DEFAULT_MAX_CONCURRENCY

CONFIG_ENV = "CLOVER_CONFIG"


@dataclass
class Config:
    seed: int = 0
    output_dir: Path = Path("out")
    created_at: str = ""
    corpus: str = ""
    templates: str = ""
    fixtures: str = ""
    min_words: int = DEFAULT_MIN_WORDS
    mode: str = "mock"
    endpoint: str = ""
    model: str = "gpt-3.5-turbo"
    rate_in_usd_per_1k: Decimal = Decimal("0.0015")
    rate_out_usd_per_1k: Decimal = Decimal("0.002")
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY
    max_retries: int = RetryPolicy.max_retries
    backoff_base_s: float = RetryPolicy.backoff_base_s
    max_completion_tokens: int = DEFAULT_MAX_COMPLETION_TOKENS
    budget_usd: Decimal = DEFAULT_BUDGET_USD
    strict_parse: bool = False


SECTIONS = {
    "core": ("seed", "output_dir", "created_at"),
    "paths": ("corpus", "templates", "fixtures"),
    "corpus": ("min_words",),
    "backend": (
        "mode", "endpoint", "model", "rate_in_usd_per_1k", "rate_out_usd_per_1k",
        "max_concurrency", "max_retries", "backoff_base_s", "max_completion_tokens",
    ),
    "generation": ("budget_usd", "strict_parse"),
}
_SECTION_OF = {key: section for section, keys in SECTIONS.items() for key in keys}

# How a file value is parsed for each default's type, and what that type is called.
_KINDS = {
    bool: (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"),
    int: (int, "an integer"),
    float: (float, "a number"),
    Decimal: (Decimal, "a decimal"),
}

# The lowest accepted value of every numeric key; NaN and infinities are refused too.
_MINIMUM = {
    **dict.fromkeys(("seed", "max_retries", "backoff_base_s", "budget_usd"), 0),
    **dict.fromkeys(("rate_in_usd_per_1k", "rate_out_usd_per_1k"), 0),
    **dict.fromkeys(("min_words", "max_concurrency", "max_completion_tokens"), 1),
}


def _parse(key: str, raw: str):
    kind = type(getattr(Config, key))
    parse, name = _KINDS.get(kind, (kind, ""))
    try:
        return parse(raw)
    except (KeyError, ValueError, ArithmeticError) as exc:
        raise ConfigError(
            f"config key [{_SECTION_OF[key]}] {key} must be {name}, got '{raw}'"
        ) from exc


def load_config(path: str | Path | None = None, flags: dict | None = None) -> Config:
    """Build a validated Config from defaults, an optional file and CLI flags.

    `flags` maps key names to already-typed flag values; a None value (flag not
    given) and a name that is not a key are skipped. Keys the file sets that
    are not in `SECTIONS` are ignored.
    """
    parser = configparser.ConfigParser(interpolation=None)
    path = path or os.environ.get(CONFIG_ENV)
    if path:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from exc
    values = {
        key: _parse(key, parser.get(section, key))
        for key, section in _SECTION_OF.items()
        if parser.has_option(section, key)
    }
    values.update(
        (key, value) for key, value in (flags or {}).items()
        if key in _SECTION_OF and value is not None
    )
    config = Config(**values)
    validate_config(config)
    return config


def validate_config(config: Config) -> None:
    for key, low in _MINIMUM.items():
        value = getattr(config, key)
        if not (math.isfinite(value) and value >= low):
            raise ConfigError(
                f"config key [{_SECTION_OF[key]}] {key} must be >= {low}, got {value}"
            )
    if config.mode not in ("live", "mock"):
        raise ConfigError(f"backend mode must be live or mock, got '{config.mode}'")
    if config.mode == "live" and not config.endpoint:
        raise ConfigError("live backend mode requires a non-empty endpoint")
