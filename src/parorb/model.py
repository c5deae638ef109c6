"""Moduli descriptions: input validation, capability flags, dimension count.

The central type is ModuliSpec: genus of the base curve, rank and determinant
degree of the bundles, one strictly increasing tuple of parabolic weights in
[0, 1) per marked point (full flags: exactly `rank` weights each), plus a
Higgs-field toggle and a genericity attestation.

The constructor only normalizes: weights become Fractions, a string weight
is read by the same parse_rational as a spec file's, and a float or bool
weight is refused.  `validate_moduli_spec` is the gate that enforces the
actual invariants and is idempotent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Any, Mapping

from .arith import exact_number, format_rational, is_squarefree, parse_rational
from .errors import (
    GenusTooSmall,
    ParseError,
    WeightCountMismatch,
    WeightOutOfRange,
    WeightsNotStrictlyIncreasing,
    _Frozen,
)


class CapabilityFlags(_Frozen):
    """What the numeric hypotheses of the heavier operations allow.

    coprime_rank_degree -- gcd(rank, degree) == 1
    squarefree_rank     -- rank is a product of distinct primes
    """

    __match_args__ = ("coprime_rank_degree", "squarefree_rank")


class ModuliSpec(_Frozen):
    """One moduli problem: curve genus, bundle data, parabolic weights.

    weights[p] is the weight tuple at marked point p, strictly increasing
    inside [0, 1) once validated; its length equals `rank` (full flags).
    """

    __match_args__ = ("genus", "rank", "degree", "weights", "higgs", "assume_generic")

    def __init__(
        self,
        genus: int,
        rank: int,
        degree: int,
        weights: tuple[tuple[Fraction, ...], ...],
        higgs: bool = False,
        assume_generic: bool = True,
    ):
        # normalize nested sequences to tuples of Fractions so instances
        # hash and compare by value; no invariant is enforced here, but the
        # exact-number rule refuses a float, rather than turn it into its
        # binary expansion, and a bool, and reads a string by the spec
        # file's rule; its ValueError is a ParseError here, as in a file
        try:
            frozen = tuple(
                tuple(Fraction(exact_number(w, "weights")) for w in point)
                for point in weights
            )
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weights", frozen)
        object.__setattr__(self, "higgs", higgs)
        object.__setattr__(self, "assume_generic", assume_generic)

    @property
    def num_points(self) -> int:
        return len(self.weights)

    @cached_property
    def capabilities(self) -> CapabilityFlags:
        """Worked out on first use and kept: the spec's one memo."""
        return CapabilityFlags(
            coprime_rank_degree=gcd(self.rank, self.degree) == 1,
            squarefree_rank=is_squarefree(self.rank),
        )


def _require_weight_count(p: int, point: tuple, rank: int) -> None:
    """Raise WeightCountMismatch unless point p carries exactly rank weights."""
    if len(point) != rank:
        raise WeightCountMismatch(
            "point %d carries %d weights, expected rank %d" % (p, len(point), rank)
        )


def validate_moduli_spec(raw: ModuliSpec | Mapping[str, Any]) -> ModuliSpec:
    """Check every invariant and return the (normalized) ModuliSpec.

    Accepts either an existing ModuliSpec or a plain mapping with the keys
    genus, rank, degree, weights, and optionally num_points, higgs,
    assume_generic (weights may be "p/q" strings; higgs and assume_generic
    must be booleans; any other key is a ParseError).  Validating an
    already valid spec returns an equal spec.
    """
    spec = raw if isinstance(raw, ModuliSpec) else _spec_from_mapping(raw)

    if not isinstance(spec.genus, int) or isinstance(spec.genus, bool):
        raise ParseError("genus must be an integer, got %r" % (spec.genus,))
    if not isinstance(spec.rank, int) or isinstance(spec.rank, bool):
        raise ParseError("rank must be an integer, got %r" % (spec.rank,))
    if not isinstance(spec.degree, int) or isinstance(spec.degree, bool):
        raise ParseError("degree must be an integer, got %r" % (spec.degree,))
    for flag in ("higgs", "assume_generic"):
        value = getattr(spec, flag)
        if not isinstance(value, bool):
            raise ParseError("%s must be true or false, got %r" % (flag, value))
    if spec.rank < 2:
        raise ParseError("rank must be at least 2, got %d" % spec.rank)
    if spec.genus < 2:
        raise GenusTooSmall("genus must be at least 2, got %d" % spec.genus)
    if spec.genus == 2 and spec.rank == 2:
        raise GenusTooSmall("genus 2 requires rank at least 3")
    if spec.num_points < 1:
        raise ParseError("at least one marked point is required")

    for p, point in enumerate(spec.weights):
        _require_weight_count(p, point, spec.rank)
        for w in point:
            if not (0 <= w < 1):
                raise WeightOutOfRange(
                    "point %d has weight %s outside [0, 1)" % (p, format_rational(w))
                )
        for a, b in zip(point, point[1:]):
            if not a < b:
                raise WeightsNotStrictlyIncreasing(
                    "point %d weights are not strictly increasing "
                    "(%s then %s)" % (p, format_rational(a), format_rational(b))
                )
    return spec


_REQUIRED_KEYS = ("genus", "rank", "degree", "weights")
_OPTIONAL_KEYS = ("num_points", "higgs", "assume_generic")


def _spec_from_mapping(raw: Mapping[str, Any]) -> ModuliSpec:
    if not isinstance(raw, Mapping):
        raise ParseError("spec must be a JSON object, got %r" % type(raw).__name__)
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ParseError("spec is missing key(s): %s" % ", ".join(missing))
    unknown = sorted(str(k) for k in raw if k not in _REQUIRED_KEYS + _OPTIONAL_KEYS)
    if unknown:
        raise ParseError("spec has unknown key(s): %s" % ", ".join(unknown))
    weights_raw = raw["weights"]
    if not isinstance(weights_raw, (list, tuple)):
        raise ParseError("weights must be an array of arrays")
    weights = []
    for point in weights_raw:
        if not isinstance(point, (list, tuple)):
            raise ParseError("each weights entry must be an array")
        weights.append(
            tuple(w if isinstance(w, Fraction) else parse_rational(w) for w in point)
        )
    if "num_points" in raw:
        num_points = raw["num_points"]
        if not isinstance(num_points, int) or isinstance(num_points, bool):
            raise ParseError("num_points must be an integer, got %r" % (num_points,))
        if num_points != len(weights):
            raise WeightCountMismatch(
                "num_points says %r but %d weight tuples were given"
                % (num_points, len(weights))
            )
    return ModuliSpec(
        genus=raw["genus"],
        rank=raw["rank"],
        degree=raw["degree"],
        weights=tuple(weights),
        higgs=raw.get("higgs", False),
        assume_generic=raw.get("assume_generic", True),
    )


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a key given twice is a ValueError, where
    json.load would keep the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("repeated key %r" % (key,))
        obj[key] = value
    return obj


def _read_json(path: str, what: str) -> Any:
    """Decode a JSON file; an unreadable file, bad JSON, a repeated key or an
    undecodable value is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError("cannot read %s file %s: %s" % (what, path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            "malformed JSON in %s at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from None
    except ValueError as exc:  # bad UTF-8, an int past the digit limit, a repeated key
        raise ParseError("cannot decode %s file %s: %s" % (what, path, exc)) from None


def load_spec(path: str) -> ModuliSpec:
    """Read and validate a JSON spec file."""
    return validate_moduli_spec(_read_json(path, "spec"))


def spec_to_mapping(spec: ModuliSpec) -> dict[str, Any]:
    """JSON-ready echo of a spec (weights as exact "p/q" strings)."""
    return {
        "genus": spec.genus,
        "rank": spec.rank,
        "degree": spec.degree,
        "num_points": spec.num_points,
        "weights": [[format_rational(w) for w in point] for point in spec.weights],
        "higgs": spec.higgs,
        "assume_generic": spec.assume_generic,
    }


def moduli_dimension(spec: ModuliSpec) -> int:
    """Dimension of the moduli of stable full-flag parabolic bundles.

    (rank^2 - 1)(genus - 1) plus one full-flag contribution
    rank(rank - 1)/2 per marked point.

    >>> from fractions import Fraction as F
    >>> w = (tuple(F(i, 4) for i in range(2)),)
    >>> moduli_dimension(ModuliSpec(genus=2, rank=2, degree=1, weights=w))
    4
    """
    g, r, s = spec.genus, spec.rank, spec.num_points
    return (r * r - 1) * (g - 1) + s * (r * (r - 1) // 2)
