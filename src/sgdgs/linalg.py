"""Dense exact matrices over arbitrary-precision integers.

IntMatrix is immutable; all operations are pure functions.  RatMatrix is
an immutable value with no arithmetic: it holds the rational matrices of
the text format and the Fraction view of a conjugator (level, level * Q).
Its entries are fractions.Fraction, in lowest terms with a positive
denominator, so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernels
from .errors import DimensionError, SingularMatrixError
from .intpoly import IntPolynomial


class IntMatrix:
    """Immutable dense matrix with integer entries (row-major tuples)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if not data:
            raise DimensionError("matrix must have at least one row")
        width = len(data[0])
        if width == 0 or any(len(r) != width for r in data):
            raise DimensionError("rows must be nonempty and of equal length")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def ones_column(cls, n: int) -> "IntMatrix":
        """The all-one n x 1 vector."""
        return cls([[1]] * n)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    @property
    def T(self) -> "IntMatrix":
        return self.transpose()

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in r] for r in self.data])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape()} by {other.shape()}")
        bt = other.transpose().data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data]
        )

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return self.data == other.data
        return NotImplemented

    def __hash__(self):
        return hash(self.data)

    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def __repr__(self):
        return f"IntMatrix({self.to_lists()})"


class RatMatrix:
    """Immutable dense matrix of exact rational entries; a value, not an
    arithmetic type."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries):
        data = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not data:
            raise DimensionError("matrix must have at least one row")
        width = len(data[0])
        if width == 0 or any(len(r) != width for r in data):
            raise DimensionError("rows must be nonempty and of equal length")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        if isinstance(other, RatMatrix):
            return self.data == other.data
        return NotImplemented

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"RatMatrix({[[str(x) for x in row] for row in self.data]})"


def _require_square(m, what: str):
    if not m.is_square:
        raise DimensionError(f"{what} requires a square matrix, got {m.shape()}")


# -- operations ---------------------------------------------------------------


def det(m: IntMatrix) -> int:
    """Exact determinant (fraction-free Bareiss elimination)."""
    _require_square(m, "det")
    return kernels.det_int(m.to_lists())


def charpoly(m: IntMatrix) -> IntPolynomial:
    """det(xI - A) as a monic integer polynomial.

    A matching-polynomial DP on symmetric zero-diagonal forest matrices
    (every tree adjacency), division-free Berkowitz otherwise; see
    kernels.charpoly_coeffs.
    """
    _require_square(m, "charpoly")
    return IntPolynomial(kernels.charpoly_coeffs(m.to_lists()))


def complement_matrix(m: IntMatrix) -> IntMatrix:
    """J - I - A, the formal complement of a signed adjacency matrix."""
    _require_square(m, "complement_matrix")
    n = m.rows
    return IntMatrix(
        [[(0 if i == j else 1) - m.data[i][j] for j in range(n)] for i in range(n)]
    )


def solve(m: IntMatrix, r: IntMatrix) -> tuple[int, IntMatrix]:
    """(d, X) with d = det M and M X = d R, all in integers (fraction-free
    Bareiss, see kernels.bareiss); raises SingularMatrixError when d = 0.

    X = adj(M) R, so X / d is the exact rational solution M^-1 R.
    """
    _require_square(m, "solve")
    if r.rows != m.rows:
        raise DimensionError(f"cannot solve {m.shape()} against {r.shape()}")
    d, x = kernels.bareiss(m.to_lists(), r.to_lists())
    if x is None:
        raise SingularMatrixError()
    return d, IntMatrix(x)


# -- matrix text format ---------------------------------------------------------


def parse_matrix(text: str) -> IntMatrix | RatMatrix:
    """Parse the matrix text format: 'rows cols' then entry rows.

    Entries are integers or num/den rationals; the result is an IntMatrix
    exactly when no '/' appears.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("first line must be 'rows cols'")
    nrows, ncols = int(header[0]), int(header[1])
    if len(lines) - 1 != nrows:
        raise ValueError(f"expected {nrows} entry rows, got {len(lines) - 1}")
    rational = "/" in text
    out = []
    for ln in lines[1 : nrows + 1]:
        parts = ln.split()
        if len(parts) != ncols:
            raise ValueError(f"expected {ncols} entries per row, got {len(parts)}")
        if rational:
            out.append([Fraction(tok) for tok in parts])
        else:
            out.append([int(tok) for tok in parts])
    return RatMatrix(out) if rational else IntMatrix(out)


def format_matrix(m: IntMatrix | RatMatrix) -> str:
    """Inverse of parse_matrix."""
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(m[i, j]) for j in range(m.cols)))
    return "\n".join(lines) + "\n"
