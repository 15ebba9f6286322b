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
        return int(self.output.get("seed", "0"))


def _fraction(text: str) -> Fraction:
    return Fraction(text.strip())


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


def _alphabet_from(spec: dict) -> Alphabet:
    raw = spec.get("values", "a=0.0,b=1.0")
    symbols, values = [], []
    for item in raw.split(","):
        label, _, val = item.partition("=")
        symbols.append(label.strip())
        values.append(float(val))
    return Alphabet(tuple(symbols), tuple(values))


def build_spec(cfg: RunConfig):
    """Instantiate the sequence spec a config describes."""
    s = cfg.spec
    if cfg.kind == "circle_map":
        return CircleMapSpec(
            p=int(s["p"]),
            q=int(s["q"]),
            beta=_fraction(s["beta"]),
            theta=_fraction(s.get("theta", "0")),
            lam=float(s.get("lambda", "1.0")),
        )
    if cfg.kind == "toeplitz":
        alphabet = _alphabet_from(s)
        prefix = CodingTriple(
            pattern=tuple(s.get("prefix_pattern", "")) or (),
            period=int(s.get("prefix_period", "1")),
            offset=int(s.get("prefix_offset", "0")),
        )
        letters, periods, offsets = [], [], []
        for item in s["tail"].split(","):
            parts = item.strip().split(":")
            if len(parts) != 3:
                raise ValidationError(
                    "tail entries look like letter:period:offset, got %r" % item
                )
            letters.append(parts[0])
            periods.append(int(parts[1]))
            offsets.append(int(parts[2]))
        return ToeplitzSpec(
            alphabet=alphabet,
            prefix=prefix,
            tail_letters=tuple(letters),
            tail_periods=tuple(periods),
            tail_offsets=tuple(offsets),
            cycle=s.get("cycle", "true").lower() in ("1", "true", "yes"),
            extension_letter=s.get("extension_letter") or None,
        )
    # sparse
    v = float(s["v"])
    left_fill = float(s.get("left_fill", "0"))
    if "positions" in s:
        positions = tuple(int(x) for x in s["positions"].split(","))
        return SparseSpec(v=v, positions=positions, left_fill=left_fill)
    rule_raw = s.get("rule", "power:3").split(":")
    return SparseSpec(v=v, rule=(rule_raw[0], int(rule_raw[1])), left_fill=left_fill)
