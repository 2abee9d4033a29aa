"""Run configuration: one table of settings, read from an INI file.

Each setting is declared once, as a `Config` field: its default is the
program's default, its type is the type a file value is parsed as, and its
metadata gives its INI section and, for a number, its accepted range. CLI
flags that override a key carry the key's name and are merged over the file
once, before validation. The config path itself can come from the
CLOVER_CONFIG environment variable. Price rates are configuration, never code,
since vendor pricing drifts. This module imports only `errors`: the library
modules read their defaults, as `Config.<field>`, and choice lists from it,
not the reverse.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from decimal import Decimal
from pathlib import Path
from typing import Literal, get_args

from .errors import ConfigError

CONFIG_ENV = "CLOVER_CONFIG"

MANIFEST_FORMATS = ("jsonl", "csv")
Organ = Literal["stomach", "intestine"]
ORGANS = get_args(Organ)


def _key(section: str, default, low=None, high=None):
    """A setting's field: its default, its INI section and, for a number, the
    lowest and highest values accepted. NaN and infinities are refused too."""
    return field(default=default, metadata={"section": section, "low": low, "high": high})


# Rates multiply token counts. Below this ceiling, no cost of any token count
# that a config can hold overflows the decimal range.
_RATE_CEILING = Decimal("1E+308")


@dataclass
class Config:
    seed: int = _key("core", 0, low=0)
    output_dir: Path = _key("core", Path("out"))
    created_at: str = _key("core", "")
    corpus: str = _key("paths", "")
    templates: str = _key("paths", "")
    fixtures: str = _key("paths", "")
    min_words: int = _key("corpus", 25, low=1)
    mode: str = _key("backend", "mock")
    endpoint: str = _key("backend", "")
    model: str = _key("backend", "gpt-3.5-turbo")
    rate_in_usd_per_1k: Decimal = _key("backend", Decimal("0.0015"), low=0, high=_RATE_CEILING)
    rate_out_usd_per_1k: Decimal = _key("backend", Decimal("0.002"), low=0, high=_RATE_CEILING)
    max_concurrency: int = _key("backend", 4, low=1)
    max_retries: int = _key("backend", 5, low=0)
    backoff_base_s: float = _key("backend", 1.0, low=0)
    max_completion_tokens: int = _key("backend", 512, low=1)
    budget_usd: Decimal = _key("generation", Decimal("8.00"), low=0)
    strict_parse: bool = _key("generation", False)


_SECTION_OF = {f.name: f.metadata["section"] for f in fields(Config)}

# How a file value is parsed for each default's type, and what that type is called.
_KINDS = {
    bool: (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"),
    int: (int, "an integer"),
    float: (float, "a number"),
    Decimal: (Decimal, "a decimal"),
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


def _file_error(exc: Exception) -> str:
    """Why a config file could not be read, worded from the exception's fields,
    since configparser's own message names the file a second time."""
    if isinstance(exc, OSError) and exc.strerror:
        return exc.strerror
    if isinstance(exc, UnicodeDecodeError):
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        return f"line {lineno}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: no [section] header above this line"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] repeats an earlier one"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: key {exc.option} repeats in section [{exc.section}]"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: not a [section] header or a key = value line"
    return " ".join(str(exc).split())


def load_config(path: str | Path | None = None, flags: dict | None = None) -> Config:
    """Build a validated Config from defaults, an optional file and CLI flags.

    `flags` maps key names to already-typed flag values; a None value (flag not
    given) and a name that is not a key are skipped. Keys the file sets that
    are not `Config` fields are ignored.
    """
    parser = configparser.ConfigParser(interpolation=None)
    path = path or os.environ.get(CONFIG_ENV)
    if path:
        path = Path(path)
        try:
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except (configparser.Error, OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {_file_error(exc)}") from exc
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
    for f in fields(Config):
        low, high = f.metadata["low"], f.metadata["high"]
        if low is None:
            continue
        key, section, value = f.name, f.metadata["section"], getattr(config, f.name)
        # `math.isfinite` would turn a Decimal into a float, and 1E+999999 into inf.
        finite = value.is_finite() if isinstance(value, Decimal) else math.isfinite(value)
        if not (finite and value >= low):
            raise ConfigError(
                f"config key [{section}] {key} must be >= {low} and finite, got {value}"
            )
        if high is not None and value > high:
            raise ConfigError(f"config key [{section}] {key} must be <= {high}, got {value}")
    if config.mode not in ("live", "mock"):
        raise ConfigError(f"backend mode must be live or mock, got '{config.mode}'")
    if config.mode == "live" and not config.endpoint:
        raise ConfigError("live backend mode requires a non-empty endpoint")
