"""Flag-compatible eigenbases over an exact field.

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

All arithmetic is exact.  Entries may be any exact field type supporting
+, -, *, /, ==, and a total order, mixed with the ints 0 and 1; ints and
rational strings are coerced to Fraction, a string by the spec files'
parse_rational, and floats and bools are rejected.  The shipped and tested
instantiation is the rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import exact_number
from .errors import FlagNotFull, FlagNotPreserved, NotDiagonalizable, _Frozen

Matrix = tuple


# === exact row-reduction toolkit ===========================================

def _coerce_entry(x):
    """x by the exact-number rule, with an int made a Fraction so that
    division stays exact."""
    x = exact_number(x, "entries")
    return Fraction(x) if isinstance(x, int) else x


def _row_reduce(rows):
    """Reduced row echelon form: (nonzero rows, pivot column list).

    Deterministic: columns scanned left to right, first nonzero row used as
    pivot, rows normalized to leading 1, eliminated above and below.
    """
    work = [list(row) for row in rows]
    if not work:
        return (), ()
    height, width = len(work), len(work[0])
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = None
        for i in range(rank, height):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        lead = work[rank][col]
        work[rank] = [x / lead for x in work[rank]]
        for i in range(height):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == height:
            break
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)


def _nullspace(rows):
    """Canonical basis of the right kernel, one vector per free column."""
    rref_rows, pivots = _row_reduce(rows)
    width = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, col in zip(rref_rows, pivots):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def _mat_mul(left, right):
    cols = tuple(zip(*right))
    return tuple(
        tuple(sum(a * x for a, x in zip(row, col)) for col in cols) for row in left
    )


# === the operator and the construction ======================================

class FlaggedOperator(_Frozen):
    """A square matrix together with a full flag given by spanning vectors.

    flag[j] is the vector extending V_j to V_{j+1}: V_j is the span of the
    first j flag vectors.  The matrix must map each V_j into itself and be
    diagonalizable over the field; both are checked exactly by
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

    # W has the flag vectors as columns; one reduction of [W | A·W | I]
    # yields U = W⁻¹·A·W, the operator in flag coordinates, and W⁻¹
    w = tuple(zip(*flag))
    aw = _mat_mul(matrix, w)
    reduced, pivots = _row_reduce(
        [w[i] + aw[i] + tuple(int(i == k) for k in range(r)) for i in range(r)]
    )
    if pivots[:r] != tuple(range(r)):
        raise FlagNotFull("flag vectors are linearly dependent")
    upper = [row[r : 2 * r] for row in reduced]
    w_inverse = [row[2 * r :] for row in reduced]
    # triangularity == flag preservation
    for i in range(r):
        for j in range(i):
            if upper[i][j] != 0:
                raise FlagNotPreserved(
                    "flag step %d is not mapped into itself" % (j + 1)
                )

    chosen = []
    for j in range(r):
        value = upper[j][j]
        block = [
            [upper[i][k] - (value if i == k else 0) for k in range(j + 1)]
            for i in range(j + 1)
        ]
        lifted = [
            tuple(sum(c * vec[i] for c, vec in zip(coeffs, flag)) for i in range(r))
            for coeffs in _nullspace(block)
        ]
        meet, _ = _row_reduce(lifted)
        # a row lies outside V_j iff its j-th flag coordinate is nonzero
        candidates = [
            row for row in meet if sum(a * x for a, x in zip(w_inverse[j], row)) != 0
        ]
        if not candidates:
            raise NotDiagonalizable(
                "no eigenvector extends flag step %d (minimal polynomial "
                "not squarefree)" % (j + 1)
            )
        chosen.append(min(candidates))
    return chosen
