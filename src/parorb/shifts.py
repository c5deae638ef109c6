"""Dominance counts, eigenvalue multiplicities, and degree-shift numbers.

The torsion action of an order-m element on the tangent space along a fixed
component splits into eigenvalues exp(2*pi*sqrt(-1)*i/m), i = 1..m-1, whose
multiplicities have the closed form

    mult(i) = r^2 (g-1) / m + C_t(i)

where the dominance count C_t(i) compares each block of the weight
partition with its i-rotated successor.  The degree shift (the rational
grading offset of the corresponding twisted sector) is the weighted sum
sum_i (i/m) * mult(i).  The dimension bookkeeping

    moduli_dimension = fixed_component_dimension + total_codimension

holds exactly for every partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapabilityMissing,
    IdentityElement,
    IndexOutOfRange,
    ModeMismatch,
    ModulusMismatch,
)
from .model import ModuliSpec, moduli_dimension
from .partitions import WeightPartition, orbit_canonical
from .torsion import TorsionElement, element_order, spectral_cover_data


def dominance_count(t: WeightPartition, i: int) -> int:
    """C_t(i): dominating weight pairs between each block and its i-shift.

    Sums over all points and all block positions j the number of pairs
    (a, b) with a in block j, b in block j+i (mod m), and a > b.  A lookup
    into t.dominance_vector(): each point's vector holds C(i) for every i at
    once and is computed a single time per PointPartition object, which
    enumerations share across the partitions they yield.

    >>> from fractions import Fraction as F
    >>> from .partitions import PointPartition
    >>> t = WeightPartition((PointPartition((
    ...     (F(1, 12), F(2, 12)), (F(3, 12), F(4, 12)), (F(5, 12), F(6, 12)))),))
    >>> dominance_count(t, 1), dominance_count(t, 2)
    (4, 8)
    """
    m = t.m
    if not 1 <= i <= m - 1:
        raise IndexOutOfRange("rotation index %r outside 1..%d" % (i, m - 1))
    return t.dominance_vector()[i]


def _require_shift_hypotheses(spec: ModuliSpec, eta: TorsionElement) -> int:
    """Shared preconditions of the multiplicity/shift/dimension operations.

    Returns the order m of eta.
    """
    caps = spec.capabilities
    if not caps.coprime_rank_degree:
        raise CapabilityMissing(
            "rank %d and degree %d are not coprime" % (spec.rank, spec.degree)
        )
    if not caps.squarefree_rank:
        raise CapabilityMissing("rank %d is not squarefree" % spec.rank)
    if spec.higgs:
        raise ModeMismatch("multiplicity formulas hold in the non-Higgs mode only")
    if eta.modulus != spec.rank:
        raise ModulusMismatch(
            "torsion modulus %d does not match rank %d" % (eta.modulus, spec.rank)
        )
    m = element_order(eta)
    if m == 1:
        raise IdentityElement("the identity element has no twisted sector")
    return m


@dataclass(frozen=True)
class EigenvalueMultiplicityTable:
    """Multiplicities of the nontrivial eigenvalues on the tangent space.

    multiplicities[i] is the multiplicity of exp(2*pi*sqrt(-1)*i/m); the
    eigenvalue-1 multiplicity is derived, never computed independently:
    it is dimension minus the sum of the others.
    """

    m: int
    multiplicities: dict[int, int]
    dimension: int

    @property
    def total_codimension(self) -> int:
        return sum(self.multiplicities.values())

    @property
    def unit_eigenvalue_multiplicity(self) -> int:
        return self.dimension - self.total_codimension


def _table_and_shift(
    spec: ModuliSpec, m: int, t: WeightPartition
) -> tuple[EigenvalueMultiplicityTable, Fraction]:
    # both depend on eta only through m, and a sweep asks one partition for
    # many elements of one order, so they are kept on t with the spec object
    # and m they were computed for: a hit needs that same spec object and m.
    # The shape is checked on a miss only, and a raise is never kept.
    try:
        memo_spec, memo_m, table, value = t._shift_memo  # type: ignore[attr-defined]
        if memo_spec is spec and memo_m == m:
            return table, value
    except AttributeError:
        pass
    if t.m != m:
        raise ValueError(
            "partition has %d blocks per point, element order is %d" % (t.m, m)
        )
    if t.num_points != spec.num_points or t.block_size * t.m != spec.rank:
        raise ValueError("partition shape does not match the moduli description")
    base = spec.rank * spec.rank * (spec.genus - 1) // m
    counts = t.dominance_vector()
    mults = {i: base + counts[i] for i in range(1, m)}
    table = EigenvalueMultiplicityTable(
        m=m, multiplicities=mults, dimension=moduli_dimension(spec)
    )
    value = Fraction(sum(i * mult for i, mult in mults.items()), m)
    object.__setattr__(t, "_shift_memo", (spec, m, table, value))
    return table, value


def eigenvalue_multiplicities(
    spec: ModuliSpec, eta: TorsionElement, t: WeightPartition
) -> EigenvalueMultiplicityTable:
    """Tangent eigenvalue multiplicities along the fixed component of t.

    mult(i) = r^2 (g-1)/m + C_t(i); the first summand is integral because m
    divides r.  Needs coprime rank/degree, squarefree rank, and the
    non-Higgs mode.
    """
    m = _require_shift_hypotheses(spec, eta)
    return _table_and_shift(spec, m, t)[0]


@dataclass(frozen=True)
class DegreeShift:
    """Rational grading offset of one fixed-component class.

    value = sum_i (i/m) * mult(i); twice the value has denominator dividing
    m.  The class label is (eta, lexicographically least rotation of t).
    """

    value: Fraction
    eta: TorsionElement
    orbit_representative: WeightPartition


def degree_shift(
    spec: ModuliSpec, eta: TorsionElement, t: WeightPartition
) -> DegreeShift:
    """Degree shift of the component class of t; equal across each orbit.

    >>> from fractions import Fraction as F
    >>> from .partitions import PointPartition
    >>> spec = ModuliSpec(genus=2, rank=6, degree=1,
    ...     weights=(tuple(F(i, 12) for i in range(1, 7)),))
    >>> t = WeightPartition((PointPartition((
    ...     (F(1, 12), F(2, 12)), (F(3, 12), F(4, 12)), (F(5, 12), F(6, 12)))),))
    >>> degree_shift(spec, TorsionElement(6, (2, 0, 0, 0)), t).value
    Fraction(56, 3)
    """
    m = _require_shift_hypotheses(spec, eta)
    _, value = _table_and_shift(spec, m, t)
    representative, _ = orbit_canonical(t)
    return DegreeShift(value=value, eta=eta, orbit_representative=representative)


def fixed_component_dimension(spec: ModuliSpec, eta: TorsionElement) -> int:
    """Dimension of one fixed component: Prym factor plus the small moduli.

    (m-1)(g-1) for the Prym, then the moduli of rank-l parabolic bundles on
    the cover (genus g_Y, s*m marked points, full flags):
    (l^2-1)(g_Y-1) + s*m*l(l-1)/2.  Independent of the partition.
    """
    m = _require_shift_hypotheses(spec, eta)
    g, s = spec.genus, spec.num_points
    l = spec.rank // m
    cover = spectral_cover_data(g, m)
    return (
        (m - 1) * (g - 1)
        + (l * l - 1) * (cover.cover_genus - 1)
        + s * m * (l * (l - 1) // 2)
    )


def total_codimension(
    spec: ModuliSpec, eta: TorsionElement, t: WeightPartition
) -> int:
    """Codimension of the fixed component: sum of nontrivial multiplicities.

    Complements fixed_component_dimension to the full moduli dimension.
    """
    return eigenvalue_multiplicities(spec, eta, t).total_codimension
