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

holds exactly for every partition.  The rule is written here once: the
CLI's shifts rows come from _orbit_classes, which streams the weight
strings through the library's one product walk, partitions._labelled_product,
and reads each class's shift and multiplicities off the summed dominance
vector it yields.  shift_histogram counts the classes of each shift from
_shift_polynomial, a dynamic programme over how full each block is, which
builds no partition at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterator

from .arith import format_rational
from .errors import (
    CapabilityMissing,
    IdentityElement,
    IndexOutOfRange,
    ModeMismatch,
    _Frozen,
)
from .model import ModuliSpec, moduli_dimension
from .partitions import WeightPartition, _labelled_product, _sorted_distinct
from .partitions import orbit_canonical
from .torsion import TorsionElement, _require_rank_modulus, spectral_cover_data


def dominance_count(t: WeightPartition, i: int) -> int:
    """C_t(i): dominating weight pairs between each block and its i-shift.

    Sums over all points and all block positions j the number of pairs
    (a, b) with a in block j, b in block j+i (mod m), and a > b.  A lookup
    into t.dominance_vector(), which holds C(i) for every i at once: the
    sum of the points' vectors, taken once when t was built.  An i that
    is not an int (a bool is not) is out of range.

    >>> from fractions import Fraction as F
    >>> from .partitions import PointPartition
    >>> t = WeightPartition((PointPartition((
    ...     (F(1, 12), F(2, 12)), (F(3, 12), F(4, 12)), (F(5, 12), F(6, 12)))),))
    >>> dominance_count(t, 1), dominance_count(t, 2)
    (4, 8)
    """
    counts = t.dominance_vector()
    if type(i) is not int or not 1 <= i < len(counts):
        raise IndexOutOfRange(
            "rotation index %r outside 1..%d" % (i, len(counts) - 1)
        )
    return counts[i]


def _require_shift_hypotheses(spec: ModuliSpec, eta: TorsionElement) -> int:
    """Shared preconditions of the multiplicity/shift/dimension operations:
    the spec's capabilities (coprime rank and degree, squarefree rank) and
    non-Higgs mode, then eta's modulus and order, checked on every call.

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
    m = _require_rank_modulus(eta, spec.rank)
    if m == 1:
        raise IdentityElement("the identity element has no twisted sector")
    return m


class EigenvalueMultiplicityTable(_Frozen):
    """Multiplicities of the nontrivial eigenvalues on the tangent space.

    multiplicities[i] is the multiplicity of exp(2*pi*sqrt(-1)*i/m); the
    eigenvalue-1 multiplicity is derived, never computed independently:
    it is dimension minus the sum of the others.
    """

    __match_args__ = ("m", "multiplicities", "dimension")

    @property
    def total_codimension(self) -> int:
        return sum(self.multiplicities.values())

    @property
    def unit_eigenvalue_multiplicity(self) -> int:
        return self.dimension - self.total_codimension


def _base_multiplicity(spec: ModuliSpec, m: int) -> int:
    """r^2 (g-1)/m, the part of every mult(i) that no partition changes."""
    return spec.rank * spec.rank * (spec.genus - 1) // m


def _require_shape(spec: ModuliSpec, m: int, t: WeightPartition) -> None:
    """Raise ValueError unless t has m blocks per point, one point per
    marked point of spec, and blocks of rank/m weights."""
    blocks = t.per_point[0].blocks
    if len(blocks) != m:
        raise ValueError(
            "partition has %d blocks per point, element order is %d"
            % (len(blocks), m)
        )
    if len(t.per_point) != spec.num_points or len(blocks[0]) * m != spec.rank:
        raise ValueError("partition shape does not match the moduli description")


def _multiplicities(spec: ModuliSpec, m: int, t: WeightPartition) -> list[int]:
    """mult(1), ..., mult(m-1) of t, after checking t's shape against spec
    and m; entry i-1 is r^2 (g-1)/m + C_t(i)."""
    _require_shape(spec, m, t)
    base = _base_multiplicity(spec, m)
    return [base + c for c in t.dominance_vector()[1:]]


def _shift_memo(spec: ModuliSpec, m: int, t: WeightPartition) -> tuple:
    """(spec, m, multiplicity table, shift value, representative) of t.

    Table and shift depend on eta only through m, and a sweep asks one
    partition for many elements of one order, so they are kept on t with
    the spec object and m they were computed for: a hit needs that same
    spec object and m.  The shape is checked on a miss only, and a raise is
    never kept.  The representative is orbit_canonical's, None when it is t
    itself (t holding itself would be a reference cycle).
    """
    try:
        memo = t._shift_memo  # type: ignore[attr-defined]
        if memo[0] is spec and memo[1] == m:
            return memo
    except AttributeError:
        pass
    mults = dict(enumerate(_multiplicities(spec, m, t), 1))
    table = EigenvalueMultiplicityTable(
        m=m, multiplicities=mults, dimension=moduli_dimension(spec)
    )
    value = Fraction(sum(i * mult for i, mult in mults.items()), m)
    representative, _ = orbit_canonical(t)
    memo = (spec, m, table, value, None if representative is t else representative)
    object.__setattr__(t, "_shift_memo", memo)
    return memo


def eigenvalue_multiplicities(
    spec: ModuliSpec, eta: TorsionElement, t: WeightPartition
) -> EigenvalueMultiplicityTable:
    """Tangent eigenvalue multiplicities along the fixed component of t.

    mult(i) = r^2 (g-1)/m + C_t(i); the first summand is integral because m
    divides r.  Needs coprime rank/degree, squarefree rank, and the
    non-Higgs mode.
    """
    m = _require_shift_hypotheses(spec, eta)
    return _shift_memo(spec, m, t)[2]


# object.__setattr__ read once: degree_shift builds a DegreeShift per call,
# and a module global is found faster than the builtin's attribute
_set_field = object.__setattr__


class DegreeShift(_Frozen):
    """Rational grading offset of one fixed-component class.

    value = sum_i (i/m) * mult(i); twice the value has denominator dividing
    m.  The class label is (eta, lexicographically least rotation of t).
    Its fields are its __slots__: a sweep keeps one per call, and each
    holds its three fields without a dict.
    """

    __slots__ = __match_args__ = ("value", "eta", "orbit_representative")

    def __init__(
        self,
        value: Fraction,
        eta: TorsionElement,
        orbit_representative: WeightPartition,
    ):
        _set_field(self, "value", value)
        _set_field(self, "eta", eta)
        _set_field(self, "orbit_representative", orbit_representative)


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
    _, _, _, value, representative = _shift_memo(spec, m, t)
    return DegreeShift(value, eta, t if representative is None else representative)


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
    The multiplicities eigenvalue_multiplicities tabulates sum to
    (m-1) r^2 (g-1)/m + sum_{i>=1} C_t(i), read off t's dominance vector
    without building the table, the list of multiplicities, the shift or
    the moduli dimension; the hypotheses and the partition's shape are
    checked on every call.
    """
    m = _require_shift_hypotheses(spec, eta)
    _require_shape(spec, m, t)
    return (m - 1) * _base_multiplicity(spec, m) + sum(t.dominance_vector()[1:])


def _orbit_classes(spec: ModuliSpec, eta: TorsionElement) -> Iterator[tuple]:
    """(per-point blocks of weight strings, shift numerator and denominator
    in lowest terms, multiplicities) of each rotation-orbit class, in
    compute_orbit_section's order: partitions._labelled_product over the
    weight strings, point 0 anchored.  S = sum_i i*C(i) and the
    multiplicities are read off the summed vector it yields.  Each weight
    is formatted once, and each point's blocks are one tuple shared by
    every class using it.
    """
    m = _require_shift_hypotheses(spec, eta)
    base = _base_multiplicity(spec, m)
    shift_base = base * (m * (m - 1) // 2)
    labels = [list(map(format_rational, point)) for point in _sorted_distinct(spec)]
    for blocks, vector in _labelled_product(labels, m, anchored=True):
        numerator = shift_base + sum(map(mul, vector, range(m)))
        d = gcd(numerator, m)
        yield blocks, numerator // d, m // d, [base + c for c in vector[1:]]


def _shift_polynomial(r: int, m: int) -> dict[int, int]:
    """Number of ordered partitions of the ranks 0..r-1 into m blocks per
    value of S = sum_i i*C(i).

    The ranks go in ascending order, so a new rank dominates every rank
    already placed: put in block j, with n_k ranks in block k, it adds
    sum_k n_k*((k-j) mod m) to S.  The state is the fill vector n, one of
    (l+1)^m with l = r/m; a cyclic cousin of MacMahon's inversion
    q-multinomial.
    """
    l = r // m
    layer = {(0,) * m: {0: 1}}
    for _ in range(r):
        following: dict[tuple, dict[int, int]] = {}
        for fill, counts in layer.items():
            for j in range(m):
                if fill[j] < l:
                    step = sum(n * ((k - j) % m) for k, n in enumerate(fill))
                    grown = fill[:j] + (fill[j] + 1,) + fill[j + 1:]
                    target = following.setdefault(grown, {})
                    for total, count in counts.items():
                        target[total + step] = target.get(total + step, 0) + count
        layer = following
    return layer[(l,) * m]


def shift_histogram(spec: ModuliSpec, eta: TorsionElement) -> dict[Fraction, int]:
    """Number of rotation-orbit classes of weight partitions per degree shift.

    A shift is (base*m(m-1)/2 + sum_p S_p)/m with base = r^2(g-1)/m and
    S_p = sum_i i*C_p(i), which depends only on the blocks of point p's
    ranks and not on a rotation of them.  So the counts are the s-fold
    convolution of _shift_polynomial(r, m), divided by m, the size of
    every orbit.  No partition is built; each point's weights are still
    checked for their count and for ties.  Keys ascend.

    >>> from fractions import Fraction as F
    >>> spec = ModuliSpec(genus=2, rank=6, degree=1,
    ...     weights=(tuple(F(i, 12) for i in range(1, 7)),))
    >>> hist = shift_histogram(spec, TorsionElement(6, (2, 0, 0, 0)))
    >>> [(str(shift), count) for shift, count in hist.items()]
    [('52/3', 2), ('53/3', 7), ('18', 12), ('55/3', 7), ('56/3', 2)]
    """
    m = _require_shift_hypotheses(spec, eta)
    _sorted_distinct(spec)
    polynomial = _shift_polynomial(spec.rank, m)
    totals = {0: 1}
    for _ in spec.weights:
        convolved: dict[int, int] = {}
        for a, count_a in totals.items():
            for b, count_b in polynomial.items():
                convolved[a + b] = convolved.get(a + b, 0) + count_a * count_b
        totals = convolved
    shift_base = _base_multiplicity(spec, m) * (m * (m - 1) // 2)
    return {Fraction(shift_base + t, m): n // m for t, n in sorted(totals.items())}
