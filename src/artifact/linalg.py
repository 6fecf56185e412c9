"""Sparse exact linear algebra over the rationals.

Everything downstream (root systems, structure constants, cochain complexes,
jet modules) runs through this layer, so it is deliberately small and boring:
a dict-of-rows matrix with exact rational entries, Gaussian elimination with
leftmost-pivot selection (canonical RREF, deterministic output), and the
handful of derived routines (rank, kernel, solve, span bookkeeping) the rest
of the package needs.

The scalar type is gmpy2.mpq when available, fractions.Fraction otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
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
    def identity(cls, n: int) -> "SpMat":
        return cls(n, n, {i: {i: QONE} for i in range(n)})

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
                v = Q(v)
                if v:
                    m.rows.setdefault(i, {})[j] = v
        return m

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: dict) -> "SpMat":
        m = cls(nrows, ncols)
        for (i, j), v in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise LinAlgError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
            v = Q(v)
            if v:
                m.rows.setdefault(i, {})[j] = v
        return m

    @classmethod
    def column(cls, vec: Iterable) -> "SpMat":
        return cls.from_dense([[v] for v in vec])

    @classmethod
    def diagonal(cls, diag: Iterable) -> "SpMat":
        diag = [Q(v) for v in diag]
        n = len(diag)
        return cls(n, n, {i: {i: d} for i, d in enumerate(diag) if d})

    # -- basic access -----------------------------------------------------

    def get(self, i: int, j: int):
        return self.rows.get(i, {}).get(j, QZERO)

    def set(self, i: int, j: int, v) -> None:
        v = Q(v)
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
                s = orow.get(j, QZERO) + v
                if s:
                    orow[j] = s
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
        c = Q(c)
        if not c:
            return SpMat(self.nrows, self.ncols)
        return SpMat(
            self.nrows, self.ncols,
            {i: {j: c * v for j, v in r.items()} for i, r in self.rows.items()},
        )

    def __matmul__(self, other: "SpMat") -> "SpMat":
        if self.ncols != other.nrows:
            raise LinAlgError("shape mismatch in matmul")
        out: dict[int, dict[int, object]] = {}
        orows = other.rows
        for i, r in self.rows.items():
            acc: dict[int, object] = {}
            for k, a in r.items():
                br = orows.get(k)
                if br is None:
                    continue
                for j, b in br.items():
                    s = acc.get(j, QZERO) + a * b
                    if s:
                        acc[j] = s
                    else:
                        acc.pop(j, None)
            if acc:
                out[i] = acc
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
                acc = {c: v for c, v in acc.items() if v}
            if acc:
                out[i] = acc
        return SpMat(self.nrows, ncols, out)

    def transpose(self) -> "SpMat":
        out: dict[int, dict[int, object]] = {}
        for i, r in self.rows.items():
            for j, v in r.items():
                out.setdefault(j, {})[i] = v
        return SpMat(self.ncols, self.nrows, out)

    def apply_to_cols(self, vecs: "SpMat") -> "SpMat":
        return self @ vecs

    # -- stacking ---------------------------------------------------------

    @staticmethod
    def hstack(mats: list["SpMat"]) -> "SpMat":
        assert mats
        nrows = mats[0].nrows
        assert all(m.nrows == nrows for m in mats)
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
        assert mats
        ncols = mats[0].ncols
        assert all(m.ncols == ncols for m in mats)
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
                        orow[j * other.ncols + l] = a * b
        return out

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["SpMat", list[int]]:
        """Canonical reduced row echelon form.

        Leftmost-pivot, rows ordered by pivot column, pivots normalized to 1.
        Returns (R, pivot_columns).
        """
        work = [dict(r) for r in self.rows.values()]
        done: list[dict[int, object]] = []
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
            inv = QONE / piv[j]
            piv = {c: inv * v for c, v in piv.items()}
            for r in work:
                if j in r:
                    c0 = r.pop(j)
                    for c, v in piv.items():
                        if c == j:
                            continue
                        s = r.get(c, QZERO) - c0 * v
                        if s:
                            r[c] = s
                        else:
                            r.pop(c, None)
            work = [r for r in work if r]
            for r in done:
                if j in r:
                    c0 = r.pop(j)
                    for c, v in piv.items():
                        if c == j:
                            continue
                        s = r.get(c, QZERO) - c0 * v
                        if s:
                            r[c] = s
                        else:
                            r.pop(c, None)
            done.append(piv)
            pivots.append(j)
        order = sorted(range(len(pivots)), key=lambda k: pivots[k])
        R = SpMat(self.nrows, self.ncols)
        for newi, k in enumerate(order):
            R.rows[newi] = done[k]
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
            out.rows.setdefault(f, {})[k] = QONE
            for p in pivots:
                v = R.rows.get(pivrow[p], {}).get(f, QZERO)
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
    seed) and for membership tests. Vectors are dicts {index: value}.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, dict[int, object]] = {}  # pivot index -> row

    def reduce(self, vec: dict) -> dict:
        vec = {j: Q(v) for j, v in vec.items() if v}
        changed = True
        while changed:
            changed = False
            for p in sorted(vec):
                if p in self.rows:
                    c = vec.pop(p)
                    for j, v in self.rows[p].items():
                        if j == p:
                            continue
                        s = vec.get(j, QZERO) - c * v
                        if s:
                            vec[j] = s
                        else:
                            vec.pop(j, None)
                    changed = True
                    break
        return vec

    def add(self, vec: dict) -> bool:
        """Insert vec; True when it enlarged the span."""
        red = self.reduce(vec)
        if not red:
            return False
        p = min(red)
        inv = QONE / red[p]
        row = {j: inv * v for j, v in red.items()}
        # re-reduce existing rows against the new one
        for q, r in self.rows.items():
            if p in r:
                c = r.pop(p)
                for j, v in row.items():
                    if j == p:
                        continue
                    s = r.get(j, QZERO) - c * v
                    if s:
                        r[j] = s
                    else:
                        r.pop(j, None)
        self.rows[p] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis_matrix(self) -> SpMat:
        """Columns are the echelon basis vectors, ordered by pivot."""
        out = SpMat(self.dim, len(self.rows))
        for k, p in enumerate(sorted(self.rows)):
            for j, v in self.rows[p].items():
                out.rows.setdefault(j, {})[k] = v
        return out
