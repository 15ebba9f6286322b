"""Run configuration: INI-style files with a spec section and output
options.

A config declares exactly one sequence kind; unknown sections and keys
are rejected, so a misspelt key fails instead of being ignored.
Fractions are written as "p/q" strings so circle-map parameters stay
exact.  Configs round-trip: parse -> emit -> parse yields an identical
RunConfig.
"""

from __future__ import annotations

import configparser
import io
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from .sequences import (
    Alphabet,
    CircleMapSpec,
    CodingTriple,
    SparseSpec,
    ToeplitzSpec,
    ValidationError,
)

__all__ = ["RunConfig", "parse_config", "parse_config_text", "emit_config", "build_spec"]

SPEC_KINDS = ("circle_map", "toeplitz", "sparse")

#: the keys each section may hold
_KEYS = {
    "circle_map": ("p", "q", "beta", "theta", "lambda"),
    "toeplitz": ("values", "tail", "cycle", "prefix_pattern", "prefix_period",
                 "prefix_offset", "extension_letter"),
    "sparse": ("v", "rule", "positions", "left_fill"),
    "output": ("seed",),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: spec kind + raw key/value sections."""

    kind: str
    spec: dict
    output: dict

    def __post_init__(self):
        if self.kind not in SPEC_KINDS:
            raise ValidationError(
                "spec kind must be one of %s, got %r" % (SPEC_KINDS, self.kind)
            )

    @property
    def seed(self) -> int:
        return _read("output", self.output, "seed", int, "0")


def _read(section: str, values: dict, key: str, convert, default=None):
    """``convert`` of a key's text; a missing key or a bad value is named."""
    text = values.get(key, default)
    if text is None:
        raise ValidationError("[%s] needs the key %r" % (section, key))
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(
            "[%s] %s = %r is malformed: %s" % (section, key, text, exc)
        ) from None


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError("expected one of %s" % ", ".join(states))
    return states[text.lower()]


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    for name in cp.sections():
        if name not in _KEYS:
            raise ValidationError("unknown config section [%s]" % name)
        typos = [key for key in cp[name] if key not in _KEYS[name]]
        if typos:
            raise ValidationError("unknown key(s) in [%s]: %s" % (name, ", ".join(typos)))
    kinds = [k for k in SPEC_KINDS if cp.has_section(k)]
    if len(kinds) != 1:
        raise ValidationError(
            "config must contain exactly one spec section out of %s" % (SPEC_KINDS,)
        )
    kind = kinds[0]
    spec = dict(cp.items(kind))
    output = dict(cp.items("output")) if cp.has_section("output") else {}
    return RunConfig(kind=kind, spec=spec, output=output)


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def emit_config(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp[cfg.kind] = dict(cfg.spec)
    if cfg.output:
        cp["output"] = dict(cfg.output)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _alphabet(raw: str) -> Alphabet:
    pairs = [item.partition("=") for item in raw.split(",")]
    return Alphabet(tuple(a.strip() for a, _, _ in pairs),
                    tuple(float(v) for _, _, v in pairs))


def _tail(raw: str) -> tuple:
    """(letters, periods, offsets) of a ``letter:period:offset,...`` list."""
    levels = [item.strip().split(":") for item in raw.split(",")]
    if any(len(parts) != 3 for parts in levels):
        raise ValueError("entries look like letter:period:offset")
    return tuple(zip(*((a, int(n), int(l)) for a, n, l in levels)))


def _rule(raw: str) -> tuple:
    kind, number = raw.split(":")
    return kind, int(number)


@contextmanager
def _naming(section: str, keys):
    """Re-raise a spec constructor's ValidationError with the keys it read."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError("[%s] %s: %s" % (section, ", ".join(keys), exc)) from None


def build_spec(cfg: RunConfig):
    """Instantiate the sequence spec a config describes; bad keys are named."""
    def read(key, convert, default=None):
        return _read(cfg.kind, cfg.spec, key, convert, default)

    if cfg.kind == "circle_map":
        args = dict(
            p=read("p", int),
            q=read("q", int),
            beta=read("beta", Fraction),
            theta=read("theta", Fraction, "0"),
            lam=read("lambda", float, "1.0"),
        )
        with _naming(cfg.kind, _KEYS[cfg.kind]):
            return CircleMapSpec(**args)
    if cfg.kind == "toeplitz":
        letters, periods, offsets = read("tail", _tail)
        alphabet = read("values", _alphabet, "a=0.0,b=1.0")
        period, offset = read("prefix_period", int, "1"), read("prefix_offset", int, "0")
        with _naming(cfg.kind, ("prefix_pattern", "prefix_period", "prefix_offset")):
            prefix = CodingTriple(tuple(cfg.spec.get("prefix_pattern", "")), period, offset)
        cycle = read("cycle", _boolean, "true")
        with _naming(cfg.kind, _KEYS[cfg.kind]):
            return ToeplitzSpec(
                alphabet=alphabet,
                prefix=prefix,
                tail_letters=letters,
                tail_periods=periods,
                tail_offsets=offsets,
                cycle=cycle,
                extension_letter=cfg.spec.get("extension_letter") or None,
            )
    # sparse
    v = read("v", float)
    left_fill = read("left_fill", float, "0")
    if "positions" in cfg.spec:
        where, placed = "positions", read(
            "positions", lambda raw: tuple(int(x) for x in raw.split(","))
        )
    else:
        where, placed = "rule", read("rule", _rule, "power:3")
    with _naming(cfg.kind, ("v", where, "left_fill")):
        return SparseSpec(v=v, left_fill=left_fill, **{where: placed})
