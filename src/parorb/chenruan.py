"""Twisted sectors, the rationally graded dimension table, Euler identity,
and the support rules for the orbifold pairing and product.

A twisted sector of a non-identity element of order m is the sum, over the
rotation-orbit classes of weight partitions, of

    H^*(Prym) (x) H^*(small parabolic moduli on the cover)

shifted upward by twice the class's degree shift.  That series is the same
for every class, so a sector depends on its classes only through how many
have each shift.  chen_ruan_table reads those counts off
shifts.shift_histogram, the s-th convolution power of one polynomial per
order, built by a dynamic programme over block fill vectors, so it builds
no partition at all.  The table is one sum on the integer keys r * grade;
twisted_sector shares it, enumerates the orbit representatives one by one
and is kept as the independent check.  The Prym factor is a
complex torus, so every twisted sector has Euler characteristic zero and
the orbifold Euler characteristic equals the plain one — the certificate
records that identity divisor by divisor.

Betti tables for the small-rank factor (l > 1) are external inputs, keyed
by (genus, rank, points, chamber); the rank-1 factor is a point and is
built in.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Optional

from .arith import exact_number, format_rational
from .errors import ParseError, TableMissing, _Frozen
from .fixed_loci import IntersectionSupport, fixed_locus_components, intersection_support
from .model import ModuliSpec, _read_json, moduli_dimension
from .partitions import compute_orbit_section
from .shifts import _require_shift_hypotheses, degree_shift, shift_histogram
from .torsion import (
    TorsionElement,
    _nontrivial_orders,
    _require_same_group,
    count_elements_of_order,
    spectral_cover_data,
)


# === graded carriers ========================================================

def _graded_entries(pairs, what: str, convert) -> tuple:
    """(grade, dim) pairs, each grade passed through convert(grade, what),
    which refuses what is not a grade, merged by grade with zero dims
    dropped, sorted; negative grades and dims that are not non-negative
    ints are a ValueError."""
    cleaned: dict = {}
    for grade, dim in pairs:
        grade = convert(grade, what)
        if grade < 0:
            raise ValueError("%s must be non-negative, got %s" % (what, grade))
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError("dimensions must be integers, got %r" % (dim,))
        if dim < 0:
            raise ValueError("dimensions must be non-negative, got %r" % (dim,))
        if dim:
            cleaned[grade] = cleaned.get(grade, 0) + dim
    return tuple(sorted(cleaned.items()))


def _grade(value, what: str = "grades") -> Fraction:
    """value as a Fraction, by the exact-number rule."""
    return Fraction(exact_number(value, what))


def _integer_degree(degree, what: str) -> int:
    """degree itself, when it is an int.  A float or a bool is refused by
    the exact-number rule; anything else (Fraction(2), and "2", which is
    not read as a number) is a ValueError too, since to_list and
    euler_characteristic index by degree."""
    if isinstance(degree, int) and not isinstance(degree, bool):
        return degree
    if not isinstance(degree, str):
        exact_number(degree, what)
    raise ValueError("degrees must be integers, got %r" % (degree,))


class PoincareSeries(_Frozen):
    """Finitely supported integer grading: degree -> dimension (> 0 kept)."""

    __match_args__ = ("coefficients",)

    def __init__(self, coefficients: tuple[tuple[int, int], ...]):
        entries = _graded_entries(coefficients, "degrees", _integer_degree)
        object.__setattr__(self, "coefficients", entries)

    @classmethod
    def from_list(cls, dims: Iterable[int]) -> "PoincareSeries":
        """Series from the dense coefficient list [b_0, b_1, ...]."""
        return cls(tuple((k, d) for k, d in enumerate(dims)))

    def coefficient(self, degree: int) -> int:
        degree = _integer_degree(degree, "degrees")
        for k, d in self.coefficients:
            if k == degree:
                return d
        return 0

    def to_list(self) -> list[int]:
        if not self.coefficients:
            return []
        top = self.coefficients[-1][0]
        dense = [0] * (top + 1)
        for k, d in self.coefficients:
            dense[k] = d
        return dense

    @property
    def top_degree(self) -> int:
        if not self.coefficients:
            raise ValueError("empty series has no top degree")
        return self.coefficients[-1][0]

    @property
    def total_dimension(self) -> int:
        return sum(d for _, d in self.coefficients)

    def euler_characteristic(self) -> int:
        """Evaluation at -1: the alternating sum of the coefficients."""
        return sum(d if k % 2 == 0 else -d for k, d in self.coefficients)

    def convolve(self, other: "PoincareSeries") -> "PoincareSeries":
        """Graded tensor product (Cauchy convolution of coefficients)."""
        acc: dict[int, int] = {}
        for k1, d1 in self.coefficients:
            for k2, d2 in other.coefficients:
                acc[k1 + k2] = acc.get(k1 + k2, 0) + d1 * d2
        return PoincareSeries(tuple(acc.items()))

    def is_palindromic(self) -> bool:
        """Symmetric about half the top degree (vacuously true when empty)."""
        if not self.coefficients:
            return True
        top = self.top_degree
        dims = dict(self.coefficients)
        return all(dims.get(top - k, 0) == d for k, d in self.coefficients)

    def shifted(self, offset: Fraction) -> "RationalGradedDimension":
        """Move every degree up by an exact rational offset."""
        offset = _grade(offset, "offsets")
        return RationalGradedDimension(
            tuple((offset + k, d) for k, d in self.coefficients)
        )


class RationalGradedDimension(_Frozen):
    """Finitely supported rational grading: grade -> dimension (> 0 kept)."""

    __match_args__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, int], ...]):
        entries = _graded_entries(entries, "grades", _grade)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def empty(cls) -> "RationalGradedDimension":
        return cls(())

    def dimension_at(self, grade) -> int:
        grade = _grade(grade)
        for x, d in self.entries:
            if x == grade:
                return d
        return 0

    @property
    def total_dimension(self) -> int:
        return sum(d for _, d in self.entries)

    def add(self, other: "RationalGradedDimension") -> "RationalGradedDimension":
        return RationalGradedDimension(self.entries + other.entries)

    def scale(self, factor: int) -> "RationalGradedDimension":
        if factor < 0:
            raise ValueError("scaling factor must be non-negative")
        return RationalGradedDimension(
            tuple((x, factor * d) for x, d in self.entries)
        )

    def integer_rows(self) -> PoincareSeries:
        """The sub-table supported on integer grades, as a plain series."""
        return PoincareSeries(
            tuple(
                (int(x), d) for x, d in self.entries if x.denominator == 1
            )
        )

    def symmetric_about(self, center: Fraction) -> bool:
        center = _grade(center, "centers")
        dims = dict(self.entries)
        return all(dims.get(2 * center - x, 0) == d for x, d in self.entries)

    def to_rows(self) -> list[dict]:
        return [
            {"grade": format_rational(x), "dim": d} for x, d in self.entries
        ]


# === Betti-table provider ===================================================

_BETTI_KEYS = ("genus", "rank", "points", "chamber", "coefficients")


class BettiTable(_Frozen):
    """One externally supplied Betti series for a parabolic moduli space."""

    __match_args__ = ("genus", "rank", "points", "chamber", "series")

    def __init__(
        self, genus: int, rank: int, points: int, chamber: str, series: PoincareSeries
    ):
        # the one type rule for both construction paths: a table keyed by
        # '2' or 2.0 would never match a lookup
        for key, value in zip(_BETTI_KEYS, (genus, rank, points)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("%s must be an integer, got %r" % (key, value))
        if not isinstance(chamber, str):
            raise ValueError("chamber must be a string, got %r" % (chamber,))
        if genus < 0 or points < 0:
            raise ValueError(
                "genus and points must be non-negative, got %d and %d"
                % (genus, points)
            )
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if not isinstance(series, PoincareSeries):
            raise ValueError("series must be a PoincareSeries, got %r" % (series,))
        if not series.coefficients:
            raise ValueError("series must be nonempty")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "chamber", chamber)
        object.__setattr__(self, "series", series)

    @property
    def key(self) -> tuple[int, int, int, str]:
        return (self.genus, self.rank, self.points, self.chamber)

    @classmethod
    def from_mapping(cls, raw) -> "BettiTable":
        """One file entry: exactly the keys genus, rank, points (integers),
        chamber (a string) and coefficients (a list of non-negative
        integers); anything else is a ParseError, nothing is coerced."""
        try:
            values = [raw[key] for key in _BETTI_KEYS]
            unknown = sorted(str(key) for key in raw if key not in _BETTI_KEYS)
            if unknown:
                raise ValueError("unknown key(s): %s" % ", ".join(unknown))
            *fields, coefficients = values
            if not isinstance(coefficients, list) or any(
                not isinstance(c, int) or isinstance(c, bool) for c in coefficients
            ):
                raise ValueError(
                    "coefficients must be a list of integers, got %r" % (coefficients,)
                )
            return cls(*fields, PoincareSeries.from_list(coefficients))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("bad Betti table entry: %s" % (exc,)) from None


class BettiProvider:
    """Read-only lookup of Betti tables by (genus, rank, points, chamber).

    A lookup without an explicit chamber succeeds only when exactly one
    chamber is on file for the (genus, rank, points) triple — the provider
    never guesses between chambers and never interpolates.
    """

    def __init__(self, tables: Iterable[BettiTable] = ()):
        self._by_key: dict[tuple, BettiTable] = {}
        for table in tables:
            known = self._by_key.get(table.key)
            if known is not None and known.series != table.series:
                raise ParseError(
                    "conflicting Betti tables for key %r" % (table.key,)
                )
            self._by_key[table.key] = table

    def __len__(self) -> int:
        return len(self._by_key)

    def _chambers(self, genus: int, rank: int, points: int) -> list[BettiTable]:
        """Every table on file for the triple, one per chamber."""
        return [
            table
            for table in self._by_key.values()
            if (table.genus, table.rank, table.points) == (genus, rank, points)
        ]

    def lookup(
        self, genus: int, rank: int, points: int, chamber: Optional[str] = None
    ) -> PoincareSeries:
        if chamber is not None:
            table = self._by_key.get((genus, rank, points, chamber))
            if table is None:
                raise TableMissing(
                    "no Betti table for (genus=%d, rank=%d, points=%d, "
                    "chamber=%r)" % (genus, rank, points, chamber)
                )
            return table.series
        matches = self._chambers(genus, rank, points)
        if not matches:
            raise TableMissing(
                "no Betti table for (genus=%d, rank=%d, points=%d)"
                % (genus, rank, points)
            )
        if len(matches) > 1:
            raise TableMissing(
                "several chambers on file for (genus=%d, rank=%d, points=%d); "
                "pass an explicit chamber" % (genus, rank, points)
            )
        return matches[0].series


def load_betti_tables(path: str) -> list[BettiTable]:
    """Read a JSON array of {genus, rank, points, chamber, coefficients}."""
    raw = _read_json(path, "Betti table")
    if not isinstance(raw, list):
        raise ParseError("Betti table file must hold a JSON array")
    return [BettiTable.from_mapping(entry) for entry in raw]


def _as_provider(provider) -> BettiProvider:
    if provider is None:
        return BettiProvider(())
    if isinstance(provider, BettiProvider):
        return provider
    return BettiProvider(provider)


# === sector assembly ========================================================

def prym_poincare(g: int, m: int) -> PoincareSeries:
    """Betti numbers C(2p, k) of the Prym torus, p = (m-1)(g-1).

    >>> prym_poincare(2, 2).to_list()
    [1, 2, 1]
    >>> prym_poincare(2, 1).to_list()
    [1]
    """
    if g < 2 or m < 1:
        raise ValueError("need g >= 2 and m >= 1")
    p = spectral_cover_data(g, m).prym_dimension
    return PoincareSeries.from_list([comb(2 * p, k) for k in range(2 * p + 1)])


def small_rank_poincare(
    provider, g_Y: int, l: int, points: int, chamber: Optional[str] = None
) -> PoincareSeries:
    """Betti series of the rank-l parabolic moduli on the cover.

    Rank 1 is built in (full flags on lines carry no data and the fixed
    determinant pins the bundle: a single point).  Anything else is an
    exact table lookup — no interpolation, TableMissing when absent.
    """
    if l < 1:
        raise ValueError("rank factor l must be at least 1")
    if l == 1:
        return PoincareSeries.from_list([1])
    return _as_provider(provider).lookup(g_Y, l, points, chamber)


class SectorReport(_Frozen):
    """One twisted sector: per-orbit-class data plus the shifted total.

    per_orbit holds one (representative WeightPartition, its DegreeShift,
    its PoincareSeries) triple per orbit class; sector_graded is a
    RationalGradedDimension.
    """

    __match_args__ = ("eta", "per_orbit", "sector_graded")

    @property
    def orbit_class_count(self) -> int:
        return len(self.per_orbit)

    def unshifted_euler(self) -> int:
        """Alternating sum over all orbit classes before shifting."""
        return sum(series.euler_characteristic() for _, _, series in self.per_orbit)


def _sector_series(
    spec: ModuliSpec, m: int, provider, chamber: Optional[str]
) -> PoincareSeries:
    """prym (x) small-rank: the series every orbit class of an order-m sector
    carries before its shift (one Betti lookup)."""
    cover = spectral_cover_data(spec.genus, m)
    return prym_poincare(spec.genus, m).convolve(
        small_rank_poincare(
            provider, cover.cover_genus, spec.rank // m, spec.num_points * m, chamber
        )
    )


def _shifted_sum(r: int, sectors: list) -> RationalGradedDimension:
    """One table from (series, histogram, factor) triples: factor copies of
    series per class, moved up by twice its shift, added on the ints r * grade
    (each shift's denominator divides r), so each grade is a Fraction once."""
    accumulated: dict[int, int] = {}
    for series, histogram, factor in sectors:
        for shift, count in histogram.items():
            offset = 2 * shift.numerator * (r // shift.denominator)
            for k, d in series.coefficients:
                key = r * k + offset
                accumulated[key] = accumulated.get(key, 0) + factor * count * d
    return RationalGradedDimension(
        tuple((Fraction(key, r), d) for key, d in accumulated.items())
    )


def _check_class_count(spec: ModuliSpec, eta: TorsionElement, count: int) -> None:
    expected = fixed_locus_components(spec, eta).gamma_classes
    if expected is not None and count != expected:
        raise AssertionError(
            "orbit classes (%d) disagree with the component count (%d)"
            % (count, expected)
        )


def twisted_sector(
    spec: ModuliSpec,
    eta: TorsionElement,
    provider=None,
    chamber: Optional[str] = None,
) -> SectorReport:
    """Assemble the twisted sector of a non-identity torsion element.

    Enumerates the rotation-orbit representatives (compute_orbit_section)
    and takes each one's degree shift; every class carries the series
    prym (x) small-rank (one Betti lookup, shared), shifted upward by twice
    its shift, and sector_graded is the sum, taken by the _shifted_sum the
    table uses.  This walks the product of the per-point partitions;
    chen_ruan_table gets the same classes per shift from shift_histogram
    instead, and this function is its independent check.
    """
    m = _require_shift_hypotheses(spec, eta)
    series = _sector_series(spec, m, provider, chamber)
    per_orbit = []
    histogram: dict[Fraction, int] = {}
    for representative in compute_orbit_section(spec, m).representatives:
        shift = degree_shift(spec, eta, representative)
        per_orbit.append((representative, shift, series))
        histogram[shift.value] = histogram.get(shift.value, 0) + 1
    report = SectorReport(
        eta=eta,
        per_orbit=tuple(per_orbit),
        sector_graded=_shifted_sum(spec.rank, [(series, histogram, 1)]),
    )
    _check_class_count(spec, eta, report.orbit_class_count)
    return report


def chen_ruan_twisted_part(
    spec: ModuliSpec, provider=None, chamber: Optional[str] = None
) -> RationalGradedDimension:
    """Sum of the twisted sectors: chen_ruan_table with no untwisted row."""
    return chen_ruan_table(spec, provider, None, chamber)


def chen_ruan_table(
    spec: ModuliSpec,
    provider=None,
    untwisted: Optional[PoincareSeries] = None,
    chamber: Optional[str] = None,
) -> RationalGradedDimension:
    """Full rationally graded dimension table of the quotient orbifold.

    Counts and shifts depend on an element only through its order, so one
    sector per divisor m != 1 of r is taken, weighted by the number of
    elements of that order; its classes per shift come from shift_histogram
    (the sector equals twisted_sector(...).sector_graded).  Checks run per
    order as twisted_sector runs them: shift hypotheses, Betti lookup,
    orbit-class count.  untwisted is the Betti series of the moduli itself
    (the quotient's ordinary cohomology agrees with it), added at shift 0;
    None leaves that row out.
    """
    r, g = spec.rank, spec.genus
    sectors = []
    for m, eta in _nontrivial_orders(r, g):
        histogram = shift_histogram(spec, eta)  # checks the shift hypotheses
        series = _sector_series(spec, m, provider, chamber)
        _check_class_count(spec, eta, sum(histogram.values()))
        sectors.append((series, histogram, count_elements_of_order(r, g, m)))
    if untwisted is not None:
        sectors.append((untwisted, {0: 1}, 1))
    return _shifted_sum(r, sectors)


class _EulerCertificateRow(NamedTuple):
    order: int
    prym_dimension: int
    sector_euler: int

    def to_mapping(self) -> dict:
        return {
            "order": self.order,
            "prym_dimension": self.prym_dimension,
            "sector_euler": self.sector_euler,
            "vanishes": self.sector_euler == 0,
        }


def euler_vanishing_certificate(spec: ModuliSpec) -> list[_EulerCertificateRow]:
    """Per divisor m != 1 of r: the twisted sector's Euler characteristic.

    Each sector is a sum of orbit-class terms prym (x) small-rank, and the
    alternating sum factors: chi(prym) * chi(small).  chi(prym) =
    (1 + (-1))^(2p) = 0 because p = (m-1)(g-1) >= 1, so every row certifies
    an exact zero with no external input.
    """
    rows = []
    for m, _ in _nontrivial_orders(spec.rank, spec.genus):
        prym = prym_poincare(spec.genus, m)
        chi = prym.euler_characteristic()
        rows.append(
            _EulerCertificateRow(
                order=m,
                prym_dimension=spectral_cover_data(spec.genus, m).prym_dimension,
                sector_euler=chi,
            )
        )
    if any(row.sector_euler != 0 for row in rows):
        raise AssertionError("a Prym factor has nonzero Euler characteristic")
    return rows


class EulerReport(NamedTuple):
    value: int
    certificate: list


def orbifold_euler(spec: ModuliSpec, provider) -> EulerReport:
    """Orbifold Euler characteristic: equals the plain one.

    The value is the alternating sum of the untwisted Betti series from the
    provider (key: genus, rank, points); every twisted sector contributes 0,
    which the certificate records.  Raises TableMissing for the value only —
    euler_vanishing_certificate needs nothing external.
    """
    certificate = euler_vanishing_certificate(spec)
    untwisted = _as_provider(provider).lookup(
        spec.genus, spec.rank, spec.num_points
    )
    return EulerReport(
        value=untwisted.euler_characteristic(), certificate=certificate
    )


# === pairing / product support rules ========================================

class PairingSupport(enum.Enum):
    FORCED_ZERO = "forced_zero"
    CANDIDATE = "candidate"


class ProductSupport(enum.Enum):
    FORCED_ZERO = "forced_zero"
    UNKNOWN = "unknown"


def pairing_support(
    n, eta: TorsionElement, tau: TorsionElement, spec: ModuliSpec
) -> PairingSupport:
    """Can the grade-n sector of eta pair nontrivially against tau?

    Candidate exactly when tau is the inverse of eta; everything else is
    forced to zero.  The inverse test is read off the exponent vectors,
    (a + b) % r == 0 at every position, so the identity pairs with itself.
    A grade outside [0, 2 * moduli_dimension] is also forced zero: one side
    of the pairing is an empty graded piece.  An int or Fraction grade is
    compared as it is, a string is read by parse_rational (ParseError on a
    spelling a spec file may not use), and a float or bool is a
    ValueError.  Raises ModulusMismatch when eta and tau lie in different
    groups (different moduli or different genera).
    """
    _require_same_group(eta, tau)
    grade = exact_number(n, "grades")
    if grade < 0 or grade > 2 * moduli_dimension(spec):
        return PairingSupport.FORCED_ZERO
    r = eta.modulus
    for a, b in zip(eta.exponents, tau.exponents):
        if (a + b) % r:
            return PairingSupport.FORCED_ZERO
    return PairingSupport.CANDIDATE


def product_support(eta1: TorsionElement, eta2: TorsionElement) -> ProductSupport:
    """Is the product of the two twisted sectors forced to vanish?

    Read off fixed_loci.intersection_support: the product is ForcedZero
    exactly when the two fixed loci are ForcedEmpty (equal orders, different
    cyclic subgroups), since it lives on their intersection.  Unknown
    otherwise: only a partial description is available.  Its errors are
    intersection_support's.
    """
    if intersection_support(eta1, eta2) is IntersectionSupport.FORCED_EMPTY:
        return ProductSupport.FORCED_ZERO
    return ProductSupport.UNKNOWN
