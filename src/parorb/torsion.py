"""r-torsion of a genus-g Jacobian as the lattice (Z/r)^(2g).

Elements are exponent vectors of length 2g taken mod r.  The module counts
elements of each exact order by Möbius inversion, attaches to an element of
order m the data of the induced degree-m cyclic étale cover (cover genus,
Prym dimension), the determinant twist picked up by pushing a line bundle
down from that cover, and decides equality of cyclic subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import divisors, mobius
from .errors import ModulusMismatch, NotADivisor


@dataclass(frozen=True)
class TorsionElement:
    """One element of (Z/modulus)^(2g); exponents stored reduced mod modulus."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive, got %r" % (self.modulus,))
        if len(self.exponents) == 0 or len(self.exponents) % 2:
            raise ValueError(
                "exponent vector must have even positive length 2g, got %d"
                % len(self.exponents)
            )
        exponents = tuple(int(e) % self.modulus for e in self.exponents)
        object.__setattr__(self, "exponents", exponents)
        # the order is kept outside the dataclass fields, so ==, hash and
        # repr still see only (modulus, exponents)
        object.__setattr__(
            self, "_order", self.modulus // gcd(self.modulus, *exponents)
        )

    @property
    def genus(self) -> int:
        return len(self.exponents) // 2

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def scale(self, k: int) -> "TorsionElement":
        """The k-th multiple (the group is written additively)."""
        return TorsionElement(self.modulus, tuple(k * e for e in self.exponents))

    def inverse(self) -> "TorsionElement":
        return self.scale(-1)

    def to_mapping(self) -> dict:
        return {"modulus": self.modulus, "exponents": list(self.exponents)}

    @classmethod
    def from_mapping(cls, raw) -> "TorsionElement":
        return cls(modulus=raw["modulus"], exponents=tuple(raw["exponents"]))


def element_order(eta: TorsionElement) -> int:
    """Exact order of eta: modulus / gcd(modulus, all exponents).

    Computed once, when the element is constructed.

    >>> element_order(TorsionElement(6, (3, 0, 0, 0)))
    2
    >>> element_order(TorsionElement(6, (2, 3, 0, 0)))
    6
    """
    return eta._order


def count_elements_of_order(r: int, g: int, m: int) -> int:
    """Number of elements of exact order m in (Z/r)^(2g).

    Möbius inversion over the divisor lattice of m: the elements killed by e
    number e^(2g), hence sum of mobius(m/e) * e^(2g) over e | m.

    >>> count_elements_of_order(6, 2, 2)
    15
    >>> count_elements_of_order(6, 2, 6)
    1200
    """
    if r < 1 or g < 1:
        raise ValueError("need r >= 1 and g >= 1")
    if m < 1 or r % m:
        raise NotADivisor("m = %r does not divide r = %r" % (m, r))
    return sum(mobius(m // e) * e ** (2 * g) for e in divisors(m))


@dataclass(frozen=True)
class SpectralCoverData:
    """Genus of the degree-m cyclic étale cover and dimension of its Prym."""

    cover_genus: int
    prym_dimension: int


def spectral_cover_data(g: int, m: int) -> SpectralCoverData:
    """Cover genus m(g-1)+1 (unramified Riemann–Hurwitz) and Prym dimension
    (m-1)(g-1).

    >>> spectral_cover_data(2, 2)
    SpectralCoverData(cover_genus=3, prym_dimension=1)
    """
    if g < 1 or m < 1:
        raise ValueError("need g >= 1 and m >= 1")
    return SpectralCoverData(
        cover_genus=m * (g - 1) + 1,
        prym_dimension=(m - 1) * (g - 1),
    )


@dataclass(frozen=True)
class DetTwist:
    """Determinant correction from pushing a line bundle down a cyclic cover.

    eta_exponent == 0 means no twist; eta_exponent == k means the determinant
    gains the k-th multiple of the covering element.
    """

    eta_exponent: int

    @property
    def is_trivial(self) -> bool:
        return self.eta_exponent == 0

    def to_mapping(self) -> dict:
        if self.is_trivial:
            return {"twist": "trivial"}
        return {"twist": "eta_power", "power": self.eta_exponent}


def pushforward_det_twist(m: int, r: int) -> DetTwist:
    """Twist of det(pushforward) for a degree-m cyclic cover inside r-torsion.

    The determinant of the regular representation of Z/m has order
    (-1)^(m-1): no twist for odd m, the unique order-2 power r/2 of the
    covering element for even m.
    """
    if m < 1 or r < 1 or r % m:
        raise NotADivisor("m = %r does not divide r = %r" % (m, r))
    if m % 2:
        return DetTwist(eta_exponent=0)
    return DetTwist(eta_exponent=r // 2)


def cyclic_subgroup_elements(eta: TorsionElement) -> list[TorsionElement]:
    """The subgroup generated by eta, listed as 0, eta, 2·eta, ..."""
    return [eta.scale(k) for k in range(element_order(eta))]


def cyclic_subgroup_equal(eta: TorsionElement, tau: TorsionElement) -> bool:
    """True iff eta and tau generate the same cyclic subgroup.

    At equal orders tau lying in <eta> already makes the two subgroups
    equal, so one membership test decides.  Raises ModulusMismatch when the
    ambient groups differ.
    """
    if eta.modulus != tau.modulus:
        raise ModulusMismatch(
            "moduli differ: %d vs %d" % (eta.modulus, tau.modulus)
        )
    if element_order(eta) != element_order(tau):
        return False
    return tau in cyclic_subgroup_elements(eta)


def _equal_order_distinct_subgroups(eta: TorsionElement, tau: TorsionElement) -> bool:
    """The support rule: equal orders but different cyclic subgroups.

    Such a pair has disjoint fixed loci and a vanishing sector product.  For
    a prime modulus p every non-identity element has order p, so this clause
    already covers every tau outside <eta>.
    """
    return element_order(eta) == element_order(tau) and not cyclic_subgroup_equal(
        eta, tau
    )


def canonical_element_of_order(r: int, g: int, m: int) -> TorsionElement:
    """Deterministic representative of exact order m: (r/m, 0, ..., 0)."""
    if m < 1 or r % m:
        raise NotADivisor("m = %r does not divide r = %r" % (m, r))
    return TorsionElement(r, (r // m,) + (0,) * (2 * g - 1))
