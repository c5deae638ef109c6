"""r-torsion of a genus-g Jacobian as the lattice (Z/r)^(2g).

Elements are exponent vectors of length 2g taken mod r.  The module counts
elements of each exact order by Möbius inversion, attaches to an element of
order m the data of the induced degree-m cyclic étale cover (cover genus,
Prym dimension), the determinant twist picked up by pushing a line bundle
down from that cover, and decides equality of cyclic subgroups.
"""

from __future__ import annotations

from math import gcd

from .arith import _require_divisor, divisors, mobius
from .errors import ModulusMismatch, _Frozen


class TorsionElement(_Frozen):
    """One element of (Z/modulus)^(2g); exponents stored reduced mod modulus."""

    __match_args__ = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        # exact ints only (bools too are refused): int() would truncate 2.7
        # and parse "3"
        if type(modulus) is not int:
            raise ValueError("modulus must be an int, got %r" % (modulus,))
        if modulus < 1:
            raise ValueError("modulus must be positive, got %r" % (modulus,))
        if len(exponents) == 0 or len(exponents) % 2:
            raise ValueError(
                "exponent vector must have even positive length 2g, got %d"
                % len(exponents)
            )
        for e in exponents:
            if type(e) is not int:
                raise ValueError("exponents must be ints, got %r" % (e,))
        exponents = tuple(e % modulus for e in exponents)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "exponents", exponents)
        # the order is not a field, so ==, hash and repr still see only
        # (modulus, exponents)
        object.__setattr__(self, "_order", modulus // gcd(modulus, *exponents))

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
    if type(g) is not int or r < 1 or g < 1:
        raise ValueError("need r >= 1 and an int g >= 1")
    _require_divisor(m, r)
    return sum(mobius(m // e) * e ** (2 * g) for e in divisors(m))


class SpectralCoverData(_Frozen):
    """Genus of the degree-m cyclic étale cover and dimension of its Prym."""

    __match_args__ = ("cover_genus", "prym_dimension")


def spectral_cover_data(g: int, m: int) -> SpectralCoverData:
    """Cover genus m(g-1)+1 (unramified Riemann–Hurwitz) and Prym dimension
    (m-1)(g-1).

    >>> spectral_cover_data(2, 2)
    SpectralCoverData(cover_genus=3, prym_dimension=1)
    """
    if type(g) is not int or type(m) is not int or g < 1 or m < 1:
        raise ValueError("need ints g >= 1 and m >= 1, got g = %r, m = %r" % (g, m))
    return SpectralCoverData(
        cover_genus=m * (g - 1) + 1,
        prym_dimension=(m - 1) * (g - 1),
    )


class DetTwist(_Frozen):
    """Determinant correction from pushing a line bundle down a cyclic cover.

    eta_exponent == 0 means no twist; eta_exponent == k means the determinant
    gains the k-th multiple of the covering element.
    """

    __match_args__ = ("eta_exponent",)

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
    _require_divisor(m, r, r_positive=True)
    if m % 2:
        return DetTwist(eta_exponent=0)
    return DetTwist(eta_exponent=r // 2)


def _require_same_group(eta: TorsionElement, tau: TorsionElement) -> None:
    """Raise ModulusMismatch unless eta and tau live in the same group: equal
    moduli and exponent vectors of equal length 2g."""
    if eta.modulus != tau.modulus:
        raise ModulusMismatch("moduli differ: %d vs %d" % (eta.modulus, tau.modulus))
    if len(eta.exponents) != len(tau.exponents):
        raise ModulusMismatch(
            "exponent vector lengths differ: 2g = %d vs %d"
            % (len(eta.exponents), len(tau.exponents))
        )


def _require_rank_modulus(eta: TorsionElement, rank: int) -> int:
    """The order of eta; ModulusMismatch unless eta lives in (Z/rank)^(2g)."""
    if eta.modulus != rank:
        raise ModulusMismatch(
            "torsion modulus %d does not match rank %d" % (eta.modulus, rank)
        )
    return eta._order


def cyclic_subgroup_elements(eta: TorsionElement) -> list[TorsionElement]:
    """The subgroup generated by eta, listed as 0, eta, 2·eta, ..."""
    return [eta.scale(k) for k in range(element_order(eta))]


def cyclic_subgroup_equal(eta: TorsionElement, tau: TorsionElement) -> bool:
    """True iff eta and tau generate the same cyclic subgroup.

    Decided on the exponent vectors, without building group elements.  The
    orders must agree; then tau lying in <eta> already makes the subgroups
    equal, and a non-identity tau can only be k·eta with 1 <= k < order.
    Only the k that match tau at eta's first nonzero exponent are tried
    against the whole vector.  Two identities are equal.  Raises
    ModulusMismatch when eta and tau lie in different groups (different
    moduli or different genera).

    >>> cyclic_subgroup_equal(TorsionElement(6, (1, 2)), TorsionElement(6, (5, 4)))
    True
    >>> cyclic_subgroup_equal(TorsionElement(6, (1, 2)), TorsionElement(6, (1, 4)))
    False
    """
    _require_same_group(eta, tau)
    m = eta._order
    if m != tau._order:
        return False
    if m == 1:
        return True
    r, xs, ys = eta.modulus, eta.exponents, tau.exponents
    x, y = next((a, b) for a, b in zip(xs, ys) if a)
    for k in range(1, m):
        if k * x % r == y and tuple([k * e % r for e in xs]) == ys:
            return True
    return False


def canonical_element_of_order(r: int, g: int, m: int) -> TorsionElement:
    """Deterministic representative of exact order m: (r/m, 0, ..., 0)."""
    _require_divisor(m, r)
    if type(g) is not int or g < 1:
        raise ValueError("need an int g >= 1, got g = %r" % (g,))
    return TorsionElement(r, (r // m,) + (0,) * (2 * g - 1))


def _nontrivial_orders(r: int, g: int) -> list[tuple[int, TorsionElement]]:
    """(m, canonical_element_of_order(r, g, m)) for each divisor m > 1 of r,
    ascending: the one loop of every report whose values depend on a
    non-identity element only through its order."""
    return [(m, canonical_element_of_order(r, g, m)) for m in divisors(r)[1:]]
