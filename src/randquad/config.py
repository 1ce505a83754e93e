"""Plain-text experiment configuration.

Flat INI-style sections with exact decimal literals; values are parsed with
float()/int() directly from the file text, so no locale or representation
ambiguity can creep in.  Unknown sections or keys are rejected outright:
a typo must fail loudly, not silently fall back to a default.

Noise components are written as colon-separated fields, one or more per
line, whitespace separated::

    [noise]
    atoms = 2.5:0.5
    pieces = 2.0:3.0:0.25  3.0:3.5:0.25
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .engine import SimConfig
from .noise import NoiseModel

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config_text"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# section -> key -> parser; anything else is rejected
_SCHEMA: dict[str, dict[str, str]] = {
    "noise": {"atoms": "str", "pieces": "str"},
    "sim": {
        "seed": "int",
        "steps": "int",
        "replicates": "int",
        "burn_in": "int",
        "bins": "int",
        "threads": "int",
        "initial_states": "floats",
    },
    "simulate": {"x0": "float", "n": "int", "write_trajectory": "bool"},
    "orbit": {"theta_min": "float", "theta_max": "float", "period": "int", "samples": "int"},
    "kernel": {"x_points": "floats", "steps": "int", "resolution": "int"},
    "minorize": {
        "theta0": "float",
        "period": "int",
        "j_lo": "float",
        "j_hi": "float",
        "grid": "int",
        "resolution": "int",
    },
    "stability": {},
    "extinction": {
        "threshold": "float",
        "checkpoints": "ints",
        "replicates": "int",
        "x0": "float",
    },
    "cyclicity": {"j_lo": "float", "j_hi": "float", "d_max": "int", "steps": "int", "x0": "float"},
    "kolmogorov": {"theta0": "float", "eta": "float"},
}

_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda s: {"true": True, "false": False}[s.lower()],
    "floats": lambda s: tuple(float(t) for t in s.split()),
    "ints": lambda s: tuple(int(t) for t in s.split()),
}


def _parse_value(section: str, key: str, raw: str):
    if section not in _SCHEMA:
        raise ConfigError(f"unknown section [{section}]")
    if key not in _SCHEMA[section]:
        raise ConfigError(f"unknown key '{key}' in section [{section}]")
    try:
        value = _PARSERS[_SCHEMA[section][key]](raw.strip())
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    if value == ():  # a list key left blank
        raise ConfigError(f"{section}.{key} is empty: list at least one value")
    return value


@dataclass
class ExperimentConfig:
    """Validated configuration: a mapping of sections to typed values."""

    sections: dict[str, dict[str, object]]

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def given(self, section: str, **fields: str) -> dict:
        """{field: value of key} for each field = key that the section sets, so
        that a key left out takes the default of the callee's field."""
        values = self.sections.get(section, {})
        return {field: values[key] for field, key in fields.items() if key in values}

    def require(self, section: str, key: str):
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required key {section}.{key}")
        return value

    def override(self, dotted_key: str, raw: str):
        """Apply a key=value override; dotted_key is 'section.key'."""
        if "." not in dotted_key:
            raise ConfigError(f"override key {dotted_key!r} must be section.key")
        section, key = dotted_key.split(".", 1)
        self.sections.setdefault(section, {})[key] = _parse_value(section, key, raw)

    # ------------------------------------------------------------------ #

    def noise_model(self) -> NoiseModel:
        atoms = []
        pieces = []
        forms = (("atoms", "location:weight", atoms), ("pieces", "c:d:weight", pieces))
        for key, form, items in forms:
            for token in str(self.get("noise", key, "")).split():
                try:
                    values = tuple(float(v) for v in token.split(":"))
                except ValueError:
                    values = ()
                if len(values) != form.count(":") + 1:
                    raise ConfigError(f"malformed noise.{key} item {token!r}: expected {form}")
                items.append(values)
        try:
            return NoiseModel(atoms=tuple(atoms), uniform_pieces=tuple(pieces))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def sim_config(self) -> SimConfig:
        try:
            return SimConfig(
                master_seed=self.require("sim", "seed"),
                n_steps=self.require("sim", "steps"),
                **self.given("sim", n_replicates="replicates", burn_in="burn_in",
                             initial_states="initial_states", n_bins="bins"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    sections: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        sections[section] = {}
        for key, raw in parser.items(section):
            sections[section][key] = _parse_value(section, key, raw)
    return ExperimentConfig(sections=sections)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
