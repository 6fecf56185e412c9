"""Sparse exact linear algebra over the rationals.

Everything downstream (root systems, structure constants, cochain complexes,
jet modules) runs through this layer, so it is deliberately small and boring:
a dict-of-rows matrix with exact rational entries, Gaussian elimination with
leftmost-pivot selection (canonical RREF, deterministic output), and the
handful of derived routines (rank, kernel, solve, span bookkeeping) the rest
of the package needs.

The scalar type Q is gmpy2.mpq when available, fractions.Fraction otherwise.
A matrix stores an integral entry as a plain int and any other as Q; the
constructors, ``set`` and the arithmetic write entries in that form, and
every routine also accepts Q values put straight into ``rows``. The two
kernels run on ints: a product clears each left row over its own common
denominator and the right rows it touches over one more, accumulates integer
products, and builds each nonzero of the result once. Row reduction is
fraction-free: rows are kept as primitive integer vectors, eliminated with
r <- p_j r - r_j p and divided by their content, and only the finished rows
are divided by their pivots. The RREF is unique and the pivot choice depends
only on sparsity, so the result is the one plain rational elimination gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

try:
    from gmpy2 import mpq as Q
except ImportError:
    Q = Fraction

QZERO = Q(0)
QONE = Q(1)


def qstr(x) -> str:
    """Render a rational as 'p' or 'p/q' (canonical, lowest terms)."""
    return str(Q(x))


def qparse(s: str):
    """Parse 'p' or 'p/q' back into a rational."""
    f = Fraction(s.strip())
    return Q(f.numerator, f.denominator)


def qnorm(v):
    """The stored form of the rational v: an int when integral, Q otherwise."""
    if type(v) is int:
        return v
    if type(v) is not Q:
        v = Q(v)
    return int(v.numerator) if v.denominator == 1 else v


def _quo(num: int, den: int):
    """num / den in stored form."""
    q, rem = divmod(num, den)
    return Q(num, den) if rem else q


def _clear(row: dict) -> tuple[dict, int]:
    """(ints, den) with row == ints / den and den the lcm of the denominators.

    Hands back ``row`` itself when every entry is already an int, so the
    result must not be mutated."""
    for v in row.values():
        if type(v) is not int:
            break
    else:
        return row, 1
    den = 1
    for v in row.values():
        if type(v) is not int:
            den = lcm(den, int(v.denominator))
    return {j: v * den if type(v) is int else int(v.numerator * den // v.denominator)
            for j, v in row.items()}, den


def _primitive(row: dict) -> dict:
    """Divide the integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _eliminate(row: dict, j: int, piv: dict) -> int:
    """Clear column j of the integer row against the integer row piv, in
    place: row <- a*row - b*piv with a = piv[j]/g, b = row[j]/g and g the gcd
    of the two, signed so that a > 0. Returns a, the factor row was scaled by.
    """
    b = row.pop(j)
    a = piv[j]
    g = gcd(a, b)
    if a < 0:
        g = -g
    a //= g
    b //= g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in piv.items():
        if c == j:
            continue
        s = row.get(c, 0) - b * v
        if s:
            row[c] = s
        else:
            row.pop(c, None)
    return a


class LinAlgError(Exception):
    """Inconsistent system or malformed shapes."""


class SpMat:
    """Sparse matrix over Q, dict-of-rows, zero entries never stored."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: dict | None = None):
        if nrows < 0 or ncols < 0:
            raise LinAlgError(f"negative shape {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, object]] = rows if rows is not None else {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "SpMat":
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, nrows: int, ncols: int | None = None) -> "SpMat":
        """Ones at (k, k) for k < min(nrows, ncols): a prefix inclusion or
        truncation when not square. ncols defaults to nrows."""
        if ncols is None:
            ncols = nrows
        return cls(nrows, ncols, {i: {i: 1} for i in range(min(nrows, ncols))})

    @classmethod
    def from_dense(cls, data: Iterable[Iterable]) -> "SpMat":
        data = [list(r) for r in data]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        m = cls(nrows, ncols)
        for i, r in enumerate(data):
            if len(r) != ncols:
                raise LinAlgError(f"row {i} has {len(r)} entries, expected {ncols}")
            for j, v in enumerate(r):
                v = qnorm(v)
                if v:
                    m.rows.setdefault(i, {})[j] = v
        return m

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: dict) -> "SpMat":
        m = cls(nrows, ncols)
        for (i, j), v in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise LinAlgError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
            v = qnorm(v)
            if v:
                m.rows.setdefault(i, {})[j] = v
        return m

    @classmethod
    def column(cls, vec: Iterable) -> "SpMat":
        return cls.from_dense([[v] for v in vec])

    @classmethod
    def diagonal(cls, diag: Iterable) -> "SpMat":
        diag = [qnorm(v) for v in diag]
        n = len(diag)
        return cls(n, n, {i: {i: d} for i, d in enumerate(diag) if d})

    # -- basic access -----------------------------------------------------

    def get(self, i: int, j: int):
        return self.rows.get(i, {}).get(j, QZERO)

    def set(self, i: int, j: int, v) -> None:
        v = qnorm(v)
        if v:
            self.rows.setdefault(i, {})[j] = v
        else:
            r = self.rows.get(i)
            if r is not None:
                r.pop(j, None)
                if not r:
                    del self.rows[i]

    def entries(self) -> Iterator[tuple[int, int, object]]:
        for i in sorted(self.rows):
            r = self.rows[i]
            for j in sorted(r):
                yield i, j, r[j]

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def copy(self) -> "SpMat":
        return SpMat(self.nrows, self.ncols, {i: dict(r) for i, r in self.rows.items()})

    def col_dict(self, j: int) -> dict[int, object]:
        return {i: r[j] for i, r in self.rows.items() if j in r}

    def column_vec(self, j: int) -> "SpMat":
        return SpMat(self.nrows, 1, {i: {0: v} for i, v in self.col_dict(j).items()})

    def to_dense(self) -> list[list]:
        out = [[QZERO] * self.ncols for _ in range(self.nrows)]
        for i, j, v in self.entries():
            out[i][j] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpMat):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("SpMat is mutable, not hashable")

    def __repr__(self) -> str:
        return f"SpMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SpMat") -> "SpMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in add")
        out = self.copy()
        for i, r in other.rows.items():
            orow = out.rows.setdefault(i, {})
            for j, v in r.items():
                s = orow.get(j, 0) + v
                if s:
                    orow[j] = qnorm(s)
                else:
                    orow.pop(j, None)
            if not orow:
                del out.rows[i]
        return out

    def __neg__(self) -> "SpMat":
        return SpMat(
            self.nrows, self.ncols,
            {i: {j: -v for j, v in r.items()} for i, r in self.rows.items()},
        )

    def __sub__(self, other: "SpMat") -> "SpMat":
        return self + (-other)

    def scale(self, c) -> "SpMat":
        c = qnorm(c)
        if not c:
            return SpMat(self.nrows, self.ncols)
        return SpMat(
            self.nrows, self.ncols,
            {i: {j: qnorm(c * v) for j, v in r.items()} for i, r in self.rows.items()},
        )

    def __matmul__(self, other: "SpMat") -> "SpMat":
        if self.ncols != other.nrows:
            raise LinAlgError("shape mismatch in matmul")
        # The right rows this product reads, over one common denominator.
        touched: set[int] = set()
        for r in self.rows.values():
            touched.update(r)
        right: dict[int, dict[int, int]] = {}
        dens: dict[int, int] = {}
        orows = other.rows
        for k in touched.intersection(orows):
            right[k], dens[k] = _clear(orows[k])
        rden = lcm(*dens.values()) if dens else 1
        if rden != 1:
            for k, d in dens.items():
                if d != rden:
                    m = rden // d
                    right[k] = {j: m * v for j, v in right[k].items()}
        out: dict[int, dict[int, object]] = {}
        for i, r in self.rows.items():
            left, den = _clear(r)
            acc: dict[int, int] = {}
            for k, a in left.items():
                br = right.get(k)
                if br is None:
                    continue
                for j, b in br.items():
                    acc[j] = acc.get(j, 0) + a * b
            den *= rden
            if den == 1:
                row = {j: s for j, s in acc.items() if s}
            else:
                row = {j: _quo(s, den) for j, s in acc.items() if s}
            if row:
                out[i] = row
        return SpMat(self.nrows, other.ncols, out)

    def merge_columns(self, phi: list[int], ncols: int) -> "SpMat":
        """self @ M for the 0/1 matrix M with one 1 per row, M[q, phi[q]]:
        column q is added into column phi[q], and nothing is multiplied."""
        if len(phi) != self.ncols:
            raise LinAlgError("shape mismatch in merge_columns")
        out: dict[int, dict[int, object]] = {}
        for i, r in self.rows.items():
            acc: dict[int, object] = {}
            merged = False
            for j, v in r.items():
                c = phi[j]
                if c in acc:
                    acc[c] += v
                    merged = True
                else:
                    acc[c] = v
            if merged:
                acc = {c: qnorm(v) for c, v in acc.items() if v}
            if acc:
                out[i] = acc
        return SpMat(self.nrows, ncols, out)

    def transpose(self) -> "SpMat":
        out: dict[int, dict[int, object]] = {}
        for i, r in self.rows.items():
            for j, v in r.items():
                out.setdefault(j, {})[i] = v
        return SpMat(self.ncols, self.nrows, out)

    # -- stacking ---------------------------------------------------------

    @staticmethod
    def hstack(mats: list["SpMat"]) -> "SpMat":
        if not mats:
            raise LinAlgError("hstack of no matrices")
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise LinAlgError(f"hstack of row counts {[m.nrows for m in mats]}")
        out = SpMat(nrows, sum(m.ncols for m in mats))
        off = 0
        for m in mats:
            for i, r in m.rows.items():
                orow = out.rows.setdefault(i, {})
                for j, v in r.items():
                    orow[j + off] = v
            off += m.ncols
        return out

    @staticmethod
    def vstack(mats: list["SpMat"]) -> "SpMat":
        if not mats:
            raise LinAlgError("vstack of no matrices")
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise LinAlgError(f"vstack of column counts {[m.ncols for m in mats]}")
        out = SpMat(sum(m.nrows for m in mats), ncols)
        off = 0
        for m in mats:
            for i, r in m.rows.items():
                out.rows[i + off] = dict(r)
            off += m.nrows
        return out

    @staticmethod
    def block_diag(mats: list["SpMat"]) -> "SpMat":
        out = SpMat(sum(m.nrows for m in mats), sum(m.ncols for m in mats))
        roff = coff = 0
        for m in mats:
            for i, r in m.rows.items():
                out.rows[i + roff] = {j + coff: v for j, v in r.items()}
            roff += m.nrows
            coff += m.ncols
        return out

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "SpMat":
        cpos = {j: p for p, j in enumerate(col_idx)}
        out = SpMat(len(row_idx), len(col_idx))
        for p, i in enumerate(row_idx):
            r = self.rows.get(i)
            if not r:
                continue
            nr = {cpos[j]: v for j, v in r.items() if j in cpos}
            if nr:
                out.rows[p] = nr
        return out

    def select_columns(self, col_idx: list[int]) -> "SpMat":
        return self.submatrix(list(range(self.nrows)), col_idx)

    # -- kronecker (for tensor-product actions) ---------------------------

    def kron(self, other: "SpMat") -> "SpMat":
        out = SpMat(self.nrows * other.nrows, self.ncols * other.ncols)
        for i, r in self.rows.items():
            for j, a in r.items():
                for k, s in other.rows.items():
                    orow = out.rows.setdefault(i * other.nrows + k, {})
                    for l, b in s.items():
                        orow[j * other.ncols + l] = qnorm(a * b)
        return out

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["SpMat", list[int]]:
        """Canonical reduced row echelon form.

        Leftmost-pivot, rows ordered by pivot column, pivots normalized to 1.
        Returns (R, pivot_columns).
        """
        work = []
        for r in self.rows.values():
            if r:
                row, _ = _clear(r)
                work.append(_primitive(dict(row) if row is r else row))
        done: list[dict[int, int]] = []
        pivots: list[int] = []
        # Sweep columns left to right; keep `work` rows reduced against `done`.
        for j in range(self.ncols):
            pick = None
            for idx, r in enumerate(work):
                if j in r:
                    if pick is None or len(work[idx]) < len(work[pick]):
                        pick = idx
            if pick is None:
                continue
            piv = work.pop(pick)
            for r in work:
                if j in r:
                    _eliminate(r, j, piv)
                    _primitive(r)
            work = [r for r in work if r]
            for r in done:
                if j in r:
                    _eliminate(r, j, piv)
                    _primitive(r)
            done.append(piv)
            pivots.append(j)
        order = sorted(range(len(pivots)), key=lambda k: pivots[k])
        R = SpMat(self.nrows, self.ncols)
        for newi, k in enumerate(order):
            row = done[k]
            p = row[pivots[k]]
            R.rows[newi] = row if p == 1 else {c: _quo(v, p) for c, v in row.items()}
        return R, sorted(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "SpMat":
        """Columns span {x : self @ x = 0}; canonical (free vars = identity)."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        out = SpMat(self.ncols, len(free))
        pivrow = {p: i for i, p in enumerate(pivots)}
        for k, f in enumerate(free):
            out.rows.setdefault(f, {})[k] = 1
            for p in pivots:
                v = R.rows.get(pivrow[p], {}).get(f)
                if v:
                    out.rows.setdefault(p, {})[k] = -v
        return out

    def solve(self, rhs: "SpMat") -> "SpMat":
        """A particular X with self @ X = rhs (free variables zero).

        Raises LinAlgError when inconsistent.
        """
        if rhs.nrows != self.nrows:
            raise LinAlgError("shape mismatch in solve")
        aug = SpMat.hstack([self, rhs])
        R, pivots = aug.rref()
        for p in pivots:
            if p >= self.ncols:
                raise LinAlgError("inconsistent linear system")
        X = SpMat(self.ncols, rhs.ncols)
        pivrow = {p: i for i, p in enumerate(pivots)}
        for p in pivots:
            row = R.rows.get(pivrow[p], {})
            xr = {j - self.ncols: v for j, v in row.items() if j >= self.ncols}
            if xr:
                X.rows[p] = xr
        return X

    def independent_columns(self) -> list[int]:
        """Indices of the lexicographically first maximal independent column set."""
        return self.rref()[1]

    def column_space_basis(self) -> "SpMat":
        return self.select_columns(self.independent_columns())


class EchelonSpan:
    """Incrementally maintained row space in reduced echelon form.

    Used for closure computations (smallest invariant subspace containing a
    seed) and for membership tests. Vectors are dicts {index: value}; the
    span keeps each row as a primitive integer vector, keyed by its pivot.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, dict[int, int]] = {}  # pivot index -> row

    def _reduce(self, vec: dict) -> tuple[dict, int]:
        """(ints, den): vec minus its part along the pivots, as ints / den."""
        red, den = _clear({j: v for j, v in vec.items() if v})
        # Rows vanish on every other row's pivot, so one pass clears them all.
        for p in sorted(p for p in red if p in self.rows):
            den *= _eliminate(red, p, self.rows[p])
        return red, den

    def reduce(self, vec: dict) -> dict:
        red, den = self._reduce(vec)
        if den == 1:
            return red
        return {j: _quo(v, den) for j, v in red.items()}

    def add(self, vec: dict) -> bool:
        """Insert vec; True when it enlarged the span."""
        row = _primitive(self._reduce(vec)[0])
        if not row:
            return False
        p = min(row)
        # re-reduce existing rows against the new one
        for r in self.rows.values():
            if p in r:
                _eliminate(r, p, row)
                _primitive(r)
        self.rows[p] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)[0]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis_matrix(self) -> SpMat:
        """Columns are the echelon basis vectors (pivot entry 1), ordered by
        pivot."""
        out = SpMat(self.dim, len(self.rows))
        for k, p in enumerate(sorted(self.rows)):
            row = self.rows[p]
            for j, v in row.items():
                out.rows.setdefault(j, {})[k] = _quo(v, row[p])
        return out
