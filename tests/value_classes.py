"""One instance of each of parorb's 17 value classes, with its repr.

The reprs are the ones the classes printed when they were dataclasses; the
class-contract tests in test_torsion.py and test_shifts.py pin the plain
classes to them.  ARGS maps each class to (the positional arguments of one
instance, that instance's repr).  FIELD_ONLY lists the classes built by the
base's constructor, which sets each field as given.  The others have an
__init__ of their own: DegreeShift for speed, the rest to validate or
normalize their fields.
"""

from fractions import Fraction as F

from parorb.chenruan import (
    BettiTable,
    PoincareSeries,
    RationalGradedDimension,
    SectorReport,
)
from parorb.cli import RunConfig
from parorb.eigenflag import FlaggedOperator
from parorb.fixed_loci import ComponentReport
from parorb.model import CapabilityFlags, ModuliSpec
from parorb.partitions import OrbitSection, PointPartition, WeightPartition
from parorb.shifts import DegreeShift, EigenvalueMultiplicityTable
from parorb.torsion import DetTwist, SpectralCoverData, TorsionElement

ETA = "TorsionElement(modulus=6, exponents=(2, 0, 0, 0))"
POINT = (
    "PointPartition(blocks=((Fraction(1, 4),), (Fraction(1, 2),), "
    "(Fraction(3, 4),)))"
)
W = "WeightPartition(per_point=(%s,))" % POINT
SERIES = "PoincareSeries(coefficients=((0, 1), (2, 1)))"
GRADED = "RationalGradedDimension(entries=((Fraction(1, 2), 2),))"
SHIFT = "DegreeShift(value=Fraction(3, 2), eta=%s, orbit_representative=%s)" % (ETA, W)

_point_blocks = ((F(1, 4),), (F(1, 2),), (F(3, 4),))
_eta = TorsionElement(6, (2, 0, 0, 0))
_point = PointPartition(_point_blocks)
_w = WeightPartition((_point,))
_series = PoincareSeries(((0, 1), (2, 1)))
_graded = RationalGradedDimension(((F(1, 2), 2),))
_shift = DegreeShift(F(3, 2), _eta, _w)

ARGS = {
    TorsionElement: ((6, (2, 0, 0, 0)), ETA),
    SpectralCoverData: (
        (3, 1), "SpectralCoverData(cover_genus=3, prym_dimension=1)"
    ),
    DetTwist: ((3,), "DetTwist(eta_exponent=3)"),
    CapabilityFlags: (
        (True, False),
        "CapabilityFlags(coprime_rank_degree=True, squarefree_rank=False)",
    ),
    ModuliSpec: (
        (2, 3, 1, ((F(1, 4), F(1, 2), F(3, 4)),)),
        "ModuliSpec(genus=2, rank=3, degree=1, weights=((Fraction(1, 4), "
        "Fraction(1, 2), Fraction(3, 4)),), higgs=False, assume_generic=True)",
    ),
    PointPartition: ((_point_blocks,), POINT),
    WeightPartition: (((_point,),), W),
    OrbitSection: (
        (3, 6, (_w,)),
        "OrbitSection(m=3, partition_count=6, representatives=(%s,))" % W,
    ),
    EigenvalueMultiplicityTable: (
        (2, {1: 3}, 6),
        "EigenvalueMultiplicityTable(m=2, multiplicities={1: 3}, dimension=6)",
    ),
    DegreeShift: ((F(3, 2), _eta, _w), SHIFT),
    ComponentReport: (
        (3, 6, 3, 6, 2, 3),
        "ComponentReport(eta_order=3, partition_count=6, components_per_partition=3, "
        "total_components=6, gamma_classes=2, free_transitive_subgroup_order=3)",
    ),
    PoincareSeries: ((((0, 1), (2, 1)),), SERIES),
    RationalGradedDimension: ((((F(1, 2), 2),),), GRADED),
    BettiTable: (
        (2, 1, 0, "default", _series),
        "BettiTable(genus=2, rank=1, points=0, chamber='default', series=%s)" % SERIES,
    ),
    SectorReport: (
        (_eta, ((_w, _shift, _series),), _graded),
        "SectorReport(eta=%s, per_orbit=((%s, %s, %s),), sector_graded=%s)"
        % (ETA, W, SHIFT, SERIES, GRADED),
    ),
    RunConfig: (
        ("spec.json",),
        "RunConfig(spec_path='spec.json', provider_paths=(), outputs=('census', "
        "'components', 'euler', 'product_rules'), format='json', oracle_mode=False)",
    ),
    FlaggedOperator: (
        (((1, 0), (0, 2)), ((1, 0), (0, 1))),
        "FlaggedOperator(matrix=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), "
        "Fraction(2, 1))), flag=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), "
        "Fraction(1, 1))))",
    ),
}

# the classes whose instances hold a dict, and so cannot be hashed
UNHASHABLE = (EigenvalueMultiplicityTable,)
# the classes with <, <=, > and >=
ORDERED = (PointPartition, WeightPartition)
# the classes with no __init__ of their own
FIELD_ONLY = (
    CapabilityFlags,
    OrbitSection,
    SectorReport,
    ComponentReport,
    SpectralCoverData,
    DetTwist,
    EigenvalueMultiplicityTable,
)
