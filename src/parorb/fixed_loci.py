"""Component structure of torsion fixed loci and the intersection-support test.

The fixed locus of a non-identity torsion element of order m breaks into one
piece per weight partition; each piece contributes m connected components,
and the count of partitions is |P(alpha)| = count_partitions(r, m, s).  A
distinguished order-m subgroup permutes the m components of each piece
freely and transitively (this needs squarefree rank, which gives
gcd(l, m) = 1), so the quotient has |P(alpha)| / m component classes.
"""

from __future__ import annotations

import enum
from typing import Optional

from .errors import IdentityElement, _Frozen
from .model import ModuliSpec
from .partitions import count_partitions
from .torsion import (
    TorsionElement,
    _require_rank_modulus,
    _require_same_group,
    cyclic_subgroup_equal,
)


class ComponentReport(_Frozen):
    """Component counts of one fixed locus and of its quotient.

    gamma_classes and free_transitive_subgroup_order are None when the rank
    is not squarefree: the quotient statement needs gcd(l, m) = 1, so the
    report withholds those fields rather than guessing.
    """

    __match_args__ = (
        "eta_order",
        "partition_count",
        "components_per_partition",
        "total_components",
        "gamma_classes",
        "free_transitive_subgroup_order",
    )

    def to_mapping(self) -> dict:
        """Every field, keyed by its name, in order."""
        return dict(zip(self.__match_args__, self._fields(self)))


def fixed_locus_components(spec: ModuliSpec, eta: TorsionElement) -> ComponentReport:
    """Count the components of the fixed locus of eta and of its quotient.

    The count is mode-agnostic (the Higgs flag plays no role) and depends on
    eta only through its order m: the fixed locus has one component per
    weight partition (|P(alpha)| in total); the cover-side space attached to
    one partition has m components, permuted freely and transitively by a
    distinguished order-m subgroup; and the quotient of the fixed locus has
    |P(alpha)|/m component classes (rotation orbits on partitions).

    >>> from fractions import Fraction as F
    >>> spec = ModuliSpec(genus=3, rank=2, degree=1,
    ...                   weights=((F(1, 4), F(3, 4)),))
    >>> fixed_locus_components(spec, TorsionElement(2, (1, 0, 0, 0, 0, 0))).total_components
    2
    """
    m = _require_rank_modulus(eta, spec.rank)
    if eta.is_identity:
        raise IdentityElement(
            "identity fixes everything; use the untwisted sector path"
        )
    partition_count = count_partitions(spec.rank, m, spec.num_points)
    if spec.capabilities.squarefree_rank:
        gamma_classes: Optional[int] = partition_count // m
        subgroup_order: Optional[int] = m
    else:
        gamma_classes = None
        subgroup_order = None
    return ComponentReport(
        eta_order=m,
        partition_count=partition_count,
        components_per_partition=m,
        total_components=partition_count,
        gamma_classes=gamma_classes,
        free_transitive_subgroup_order=subgroup_order,
    )


class IntersectionSupport(enum.Enum):
    FORCED_EMPTY = "forced_empty"
    POSSIBLY_NONEMPTY = "possibly_nonempty"


def intersection_support(
    eta: TorsionElement, tau: TorsionElement
) -> IntersectionSupport:
    """Can the fixed loci of eta and tau meet?

    ForcedEmpty when both have the same order but generate different cyclic
    subgroups.  For a prime modulus that already covers every tau outside
    the subgroup generated by eta, since all non-identity elements then
    share the order p.  Everything else is PossiblyNonempty (no claim is
    made for unequal orders).  Symmetric in its arguments.

    Decided on the exponent vectors: the orders are the ones stored on the
    elements (order 1 is the identity, which is refused), and the subgroup
    test is cyclic_subgroup_equal's.  Raises ModulusMismatch when eta and
    tau lie in different groups (different moduli or different genera).
    This is the one support rule: chenruan.product_support reads its
    verdict off this one, since sectors whose fixed loci do not meet have a
    vanishing product.
    """
    _require_same_group(eta, tau)
    if eta._order == 1 or tau._order == 1:
        raise IdentityElement("intersection test needs non-identity elements")
    if eta._order == tau._order and not cyclic_subgroup_equal(eta, tau):
        return IntersectionSupport.FORCED_EMPTY
    return IntersectionSupport.POSSIBLY_NONEMPTY
