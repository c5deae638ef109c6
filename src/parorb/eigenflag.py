"""Flag-compatible eigenbases over the rationals.

Given a diagonalizable operator that maps every step of a full flag into
itself, there is a basis of eigenvectors v_1, ..., v_r with
span(v_1..v_j) = V_j for every j.  flag_compatible_eigenbasis constructs
one deterministically.  In flag coordinates the operator is an upper
triangular U, so an eigenvector in V_j outside V_{j-1} must have the
eigenvalue U_jj: it is read off the diagonal, not searched for.  The
eigenvectors inside V_j are the kernel of the leading j-block of
U - U_jj·I, lifted by the flag vectors; the step takes the
lexicographically least row of their reduced echelon basis that lies
outside V_{j-1}.

All arithmetic is exact.  Entries are exact rationals, reduced on integer
rows: ints, Fractions and rational strings (read by the spec files'
parse_rational) are stored as Fractions, and floats, bools and anything
else are refused at construction.  Each row of the matrix and each flag
vector is scaled to ints by the lcm of its denominators, every reduction
runs fraction-free on ints, and Fractions are built only for the row each
step chooses, found from the pivots of the echelon rows without comparing
any.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .arith import exact_number
from .errors import FlagNotFull, FlagNotPreserved, NotDiagonalizable, _Frozen

Matrix = tuple


# === integer row-reduction toolkit ==========================================

def _coerce_entry(x):
    """x by the exact-number rule, as a Fraction; anything but an int or a
    Fraction is refused."""
    x = exact_number(x, "entries")
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, Fraction):
        raise ValueError(
            "entries must be exact rationals, not %s" % type(x).__name__
        )
    return x


def _integer_row(row):
    """(row times the lcm of its denominators as ints, that lcm)."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _row_reduce(rows):
    """Reduced row echelon form on ints: (nonzero rows, pivot column list).

    Fraction-free: a row is cleared as lead·row - factor·(pivot row) and
    divided by its gcd, so every returned row is primitive with a positive
    pivot and zeros in the other rows' pivot columns.  Each row divided by
    its pivot is the reduced echelon form over the rationals.
    Deterministic: columns scanned left to right, first nonzero row used as
    pivot.
    """
    work = list(rows)
    if not work:
        return [], []
    height, width = len(work), len(work[0])
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = None
        for i in range(rank, height):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        row = work[pivot_row]
        work[pivot_row] = work[rank]
        divisor = gcd(*row) if row[col] > 0 else -gcd(*row)
        if divisor != 1:
            row = [x // divisor for x in row]
        work[rank] = row
        lead = row[col]
        for i in range(height):
            factor = work[i][col]
            if factor and i != rank:
                cleared = [lead * a - factor * b for a, b in zip(work[i], row)]
                divisor = gcd(*cleared)
                if divisor > 1:
                    cleared = [x // divisor for x in cleared]
                work[i] = cleared
        pivots.append(col)
        rank += 1
        if rank == height:
            break
    return work[:rank], pivots


# === the operator and the construction ======================================

class FlaggedOperator(_Frozen):
    """A square matrix together with a full flag given by spanning vectors.

    flag[j] is the vector extending V_j to V_{j+1}: V_j is the span of the
    first j flag vectors.  The matrix must map each V_j into itself and be
    diagonalizable over the rationals; both are checked exactly by
    flag_compatible_eigenbasis, not at construction.
    """

    __match_args__ = ("matrix", "flag")

    def __init__(self, matrix: Matrix, flag: tuple):
        matrix = tuple(tuple(_coerce_entry(x) for x in row) for row in matrix)
        flag = tuple(tuple(_coerce_entry(x) for x in vec) for vec in flag)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "flag", flag)

    @property
    def dimension(self) -> int:
        return len(self.matrix)


def flag_compatible_eigenbasis(op: FlaggedOperator):
    """Eigenvectors v_1..v_r with span(v_1..v_j) = V_j for every j.

    Raises FlagNotFull when the flag is not a complete independent chain,
    FlagNotPreserved when some step is not mapped into itself, and
    NotDiagonalizable at the first step that no eigenvector extends, which
    happens exactly when the eigenspaces do not fill the space (minimal
    polynomial not squarefree; a preserved full flag already forces it to
    split).

    >>> basis = flag_compatible_eigenbasis(FlaggedOperator(
    ...     matrix=((1, 1), (0, 2)), flag=((1, 0), (0, 1))))
    >>> [tuple(map(str, v)) for v in basis]
    [('1', '0'), ('1', '1')]
    """
    matrix = op.matrix
    r = len(matrix)
    if r == 0 or any(len(row) != r for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    flag = op.flag
    if len(flag) != r or any(len(vec) != r for vec in flag):
        raise FlagNotFull(
            "need exactly %d flag vectors of length %d" % (r, r)
        )

    # each flag vector scaled to ints spans the same flag, and changes U only
    # by a diagonal similarity: the same diagonal, zeros and lifted kernels.
    # W has them as columns; row i of [W | A·W | I], times the lcm of the
    # denominators in row i of A, is a row of ints, and one reduction yields
    # U = W⁻¹·A·W, the operator in flag coordinates, and W⁻¹, row i over its
    # pivot
    flag = [_integer_row(vec)[0] for vec in flag]
    w = list(zip(*flag))
    rows = []
    for i, entries in enumerate(matrix):
        entries, scale = _integer_row(entries)
        rows.append(
            [scale * x for x in w[i]]
            + [sum(map(mul, entries, vec)) for vec in flag]
            + [scale if k == i else 0 for k in range(r)]
        )
    reduced, pivots = _row_reduce(rows)
    if pivots[:r] != list(range(r)):
        raise FlagNotFull("flag vectors are linearly dependent")
    leads = [reduced[i][i] for i in range(r)]
    upper = [row[r : 2 * r] for row in reduced]
    w_inverse = [row[2 * r :] for row in reduced]
    # triangularity == flag preservation
    for i in range(r):
        for j in range(i):
            if upper[i][j]:
                raise FlagNotPreserved(
                    "flag step %d is not mapped into itself" % (j + 1)
                )

    chosen = []
    for j in range(r):
        # the leading j-block of U - U_jj·I, row i times leads[i]·leads[j]
        block = []
        for i in range(j + 1):
            row = [leads[j] * x for x in upper[i][: j + 1]]
            row[i] -= leads[i] * upper[j][j]
            block.append(row)
        block, pivots = _row_reduce(block)
        # its kernel, one vector per free column, times the lcm of the pivots,
        # lifted by the flag vectors
        scale = lcm(*(row[col] for row, col in zip(block, pivots)))
        lifted = []
        for free in range(j + 1):
            if free in pivots:
                continue
            coeffs = [0] * (j + 1)
            coeffs[free] = scale
            for row, col in zip(block, pivots):
                coeffs[col] = -row[free] * (scale // row[col])
            lifted.append([sum(map(mul, coeffs, coords)) for coords in w])
        meet, pivots = _row_reduce(lifted)
        # the echelon rows are zero before their pivots, which are positive
        # and lie further right down the rows, and each row is zero in the
        # others' pivot columns: at the pivot of the earlier of two rows, the
        # later has 0 and the earlier a positive entry, so the later row is
        # the lesser.  The least row outside V_j, where the j-th flag
        # coordinate is nonzero, is then the last such row, and only it
        # becomes Fractions
        for row, col in zip(reversed(meet), reversed(pivots)):
            if sum(map(mul, w_inverse[j], row)):
                chosen.append(tuple(Fraction(x, row[col]) for x in row))
                break
        else:
            raise NotDiagonalizable(
                "no eigenvector extends flag step %d (minimal polynomial "
                "not squarefree)" % (j + 1)
            )
    return chosen
