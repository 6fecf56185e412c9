"""Sparse exact linear algebra over the rationals.

Everything downstream (root systems, structure constants, cochain complexes,
jet modules) runs through this layer, so it is deliberately small and boring:
a dict-of-rows matrix with exact rational entries, Gaussian elimination with
leftmost-pivot selection (canonical RREF, deterministic output), and the
handful of derived routines (rank, kernel, solve, span bookkeeping) the rest
of the package needs.

The scalar type Q is gmpy2.mpq when available, fractions.Fraction otherwise.
A matrix stores each row as a dict of Python ints over one positive integer
denominator: row i is ``rows[i] / dens[i]``, and ``dens`` holds only the
denominators that are not 1, so an integral matrix is stored as plain int
rows. A stored row is in lowest terms (the gcd of its entries and its
denominator is 1), holds no zero and is never empty, so the form is canonical
and two matrices are equal exactly when their dicts are. Q is built only at
the boundary: ``get``, ``entries`` and ``col_dict`` hand out an entry as an
int when integral and as Q otherwise, and the constructors and ``set`` take
any rational.

The row format is private to this module: no other module reads or writes
``rows`` or ``dens``. Code elsewhere builds a matrix from blocks with one
assembler, ``SpMat.assemble(nrows, ncols, [(row_off, col_off, coef, M), ...])``,
which sums the scaled blocks, drops zeros and writes each row in stored form;
``gather_rows``, ``place_rows`` and ``from_columns`` move rows and columns by
index maps. A row is never changed in place once a matrix holds it (``set``
replaces its row), so matrices share rows, and the index maps move them, and
their denominators, without copying. The sums, scalings and stacks here are
assembler calls too, so one loop accumulates and normalises rows.

Products accumulate in the assembler as well. A block M may be a product
block (X, Y), standing for X @ Y: each row of X is multiplied out against
Y's rows, brought to Y's common denominator, straight into the output row
the other blocks write, so X @ Y is never built or normalised on its own;
``X @ Y`` is the assembly of that one block, so there is one product loop. A
certificate that compares products, such as A' M = M A, is one signed
assembly of product blocks tested with ``is_zero``.

Every kernel runs on ints. Rows are summed over the lcm of their
denominators and each written row is divided once by the gcd of its entries
and its denominator. Column merging, the Kronecker product and the transpose
bring the rows they combine to a common denominator the same way. Row
reduction is fraction-free: the forward pass starts from the stored integer
rows divided by their content, eliminates with r <- p_j r - r_j p and
divides by the content again, sweeping the columns left to right with the
rows bucketed by their leading column; a rank and a set of independent
columns read its pivots. The RREF then clears the entries above the pivots
by back substitution; a finished row over its pivot is already in lowest
terms. The RREF is unique and the pivot choice depends only on sparsity, so
the result is the one plain rational elimination gives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
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


def _nd(v) -> tuple[int, int]:
    """(numerator, denominator) of the int or Q v, read without building a Q:
    lowest terms, positive denominator."""
    if type(v) is int:
        return v, 1
    return int(v.numerator), int(v.denominator)


def _quo(num: int, den: int):
    """num / den as an entry is handed out: an int when integral, Q otherwise."""
    q, rem = divmod(num, den)
    return Q(num, den) if rem else q


def _from_values(vals: dict) -> tuple[dict, int]:
    """(ints, den) with vals == ints / den, for nonzero rationals vals: den is
    the lcm of their denominators, which leaves the row in lowest terms."""
    nds = {j: _nd(v) for j, v in vals.items()}
    den = lcm(*(d for _, d in nds.values()))
    if den == 1:
        return {j: n for j, (n, _) in nds.items()}, 1
    return {j: n * (den // d) for j, (n, d) in nds.items()}, den


def _lowest(row: dict, den: int) -> int:
    """Divide the integer row, in place, and den by the gcd of both; returns
    the new den."""
    g = gcd(den, *row.values())
    if g != 1:
        for j in row:
            row[j] //= g
        den //= g
    return den


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


def _row_scales(y: "SpMat") -> tuple[dict[int, int] | None, int]:
    """(scales, den): row k of y is y.rows[k] * scales[k] / den over one
    common denominator den, the lcm of y's row denominators; scales is None
    when y is integral."""
    ydens = y.dens
    if not ydens:
        return None, 1
    den = lcm(*ydens.values())
    return {k: den // ydens.get(k, 1) for k in y.rows}, den


class LinAlgError(Exception):
    """Inconsistent system or malformed shapes."""


class SpMat:
    """Sparse matrix over Q: integer rows over one denominator each, zero
    entries and empty rows never stored."""

    __slots__ = ("nrows", "ncols", "rows", "dens")

    def __init__(self, nrows: int, ncols: int, rows: dict | None = None,
                 dens: dict | None = None):
        if nrows < 0 or ncols < 0:
            raise LinAlgError(f"negative shape {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = rows if rows is not None else {}
        self.dens: dict[int, int] = dens if dens is not None else {}

    def _put(self, i: int, row: dict, den: int) -> None:
        """Store the integer row over den at i, in lowest terms; an empty row
        clears row i."""
        if not row:
            self.rows.pop(i, None)
            self.dens.pop(i, None)
            return
        if den != 1:
            den = _lowest(row, den)
        self.rows[i] = row
        if den != 1:
            self.dens[i] = den
        else:
            self.dens.pop(i, None)

    # -- constructors -----------------------------------------------------

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
        ncols = len(data[0]) if data else 0
        for i, r in enumerate(data):
            if len(r) != ncols:
                raise LinAlgError(f"row {i} has {len(r)} entries, expected {ncols}")
        return cls.from_entries(len(data), ncols, {
            (i, j): v for i, r in enumerate(data) for j, v in enumerate(r)
        })

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: dict) -> "SpMat":
        grouped: dict[int, dict[int, object]] = {}
        for (i, j), v in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise LinAlgError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
            if v:
                grouped.setdefault(i, {})[j] = v
        m = cls(nrows, ncols)
        for i, vals in grouped.items():
            row, den = _from_values(vals)
            m.rows[i] = row
            if den != 1:
                m.dens[i] = den
        return m

    @classmethod
    def from_columns(cls, nrows: int, cols: list[dict]) -> "SpMat":
        """The nrows x len(cols) matrix whose column k is the dict cols[k]
        ({row: value}; zeros are dropped)."""
        return cls.from_entries(nrows, len(cols), {
            (i, k): v for k, col in enumerate(cols) for i, v in col.items()
        })

    @classmethod
    def column(cls, vec: Iterable) -> "SpMat":
        return cls.from_dense([[v] for v in vec])

    @classmethod
    def assemble(cls, nrows: int, ncols: int, blocks: Iterable[tuple]) -> "SpMat":
        """The nrows x ncols matrix sum of coef * M over the blocks
        (row_off, col_off, coef, M), with M's (0, 0) entry placed at
        (row_off, col_off). M is a matrix or a product block (X, Y), which
        stands for X @ Y: its rows are accumulated straight into the rows the
        other blocks write, and X @ Y itself is never built. Overlapping
        entries are summed and zeros dropped. A row only one plain block
        writes, with a unit coefficient and no column offset, is M's row
        itself, shared; a row two blocks hit, a product row, or a row scaled
        by a non-integral coefficient is brought to lowest terms once at the
        end."""
        out: dict[int, dict[int, int]] = {}
        odens: dict[int, int] = {}
        shared: set[int] = set()  # rows of out that are a block's own rows
        dirty: set[int] = set()

        def common(i: int, d: int) -> int:
            """Bring out row i (which exists) and a block row over d to their
            common denominator; returns the factor the block row needs."""
            orow = out[i]
            if i in shared:
                orow = out[i] = dict(orow)
                shared.discard(i)
            e = odens.get(i, 1)
            if e == d:
                return 1
            den = lcm(e, d)
            if den != e:
                s = den // e
                for j in orow:
                    orow[j] *= s
                odens[i] = den
            return den // d

        for roff, coff, c, m in blocks:
            if type(m) is tuple:
                x, y = m
                if x.ncols != y.nrows:
                    raise LinAlgError(
                        f"product block of {x.nrows}x{x.ncols} and {y.nrows}x{y.ncols}"
                    )
                mr, mc = x.nrows, y.ncols
            else:
                mr, mc = m.nrows, m.ncols
            if roff < 0 or coff < 0 or roff + mr > nrows or coff + mc > ncols:
                raise LinAlgError(
                    f"{mr}x{mc} block at ({roff}, {coff}) outside {nrows}x{ncols}"
                )
            cn, cd = _nd(c)
            if not cn:
                continue
            if type(m) is tuple:
                # row i of this block is cn * (row i of x) @ (y over rden) / d,
                # with d = x's denominator * rden * cd
                yrows = y.rows
                scales, rden = _row_scales(y)
                xdens = x.dens
                for i, r in x.rows.items():
                    orow = None
                    for k, a in r.items():
                        br = yrows.get(k)
                        if br is None:
                            continue
                        if orow is None:
                            # the first term of a nonzero row: place it
                            f, d = cn, xdens.get(i, 1) * rden * cd
                            i += roff
                            if i in out:
                                f *= common(i, d)
                            else:
                                out[i] = {}
                                if d != 1:
                                    odens[i] = d
                            orow = out[i]
                            get = orow.get
                            dirty.add(i)
                        a *= f if scales is None else f * scales[k]
                        if coff:
                            for j, b in br.items():
                                j += coff
                                orow[j] = get(j, 0) + a * b
                        else:
                            for j, b in br.items():
                                orow[j] = get(j, 0) + a * b
                continue
            mdens = m.dens
            for i, r in m.rows.items():
                # this block's row i is f * r / d
                f, d = cn, mdens.get(i, 1)
                if d != 1 and f != 1:
                    g = gcd(f, d)
                    f //= g
                    d //= g
                d *= cd
                i += roff
                if i not in out:
                    if f == 1 and cd == 1 and not coff:
                        out[i] = r
                        shared.add(i)
                    elif f == 1:
                        out[i] = {j + coff: v for j, v in r.items()}
                    else:
                        out[i] = {j + coff: f * v for j, v in r.items()}
                    if d != 1:
                        odens[i] = d
                    if cd != 1:
                        dirty.add(i)
                    continue
                # a second block in this row: sum over a common denominator
                f *= common(i, d)
                orow = out[i]
                get = orow.get
                if coff:
                    for j, v in r.items():
                        j += coff
                        orow[j] = get(j, 0) + f * v
                else:
                    for j, v in r.items():
                        orow[j] = get(j, 0) + f * v
                dirty.add(i)
        result = cls(nrows, ncols, out, odens)
        for i in dirty:
            row = out[i]
            if 0 in row.values():
                row = {j: v for j, v in row.items() if v}
                if not row:
                    del out[i]
                    odens.pop(i, None)
                    continue
            result._put(i, row, odens.get(i, 1))
        return result

    @classmethod
    def diagonal(cls, diag: Iterable) -> "SpMat":
        diag = list(diag)
        m = cls(len(diag), len(diag))
        for i, v in enumerate(diag):
            num, den = _nd(v)
            if num:
                m.rows[i] = {i: num}
                if den != 1:
                    m.dens[i] = den
        return m

    # -- basic access -----------------------------------------------------

    def get(self, i: int, j: int):
        r = self.rows.get(i)
        v = None if r is None else r.get(j)
        if v is None:
            return QZERO
        d = self.dens.get(i)
        return v if d is None else _quo(v, d)

    def set(self, i: int, j: int, v) -> None:
        """Write entry (i, j). The row is replaced, not changed in place:
        matrices may share rows."""
        row = dict(self.rows.get(i, ()))
        den = self.dens.get(i, 1)
        num, d = _nd(v)
        if num:
            if den % d:
                s = lcm(den, d) // den
                for c in row:
                    row[c] *= s
                den *= s
            row[j] = num * (den // d)
        else:
            row.pop(j, None)
        self._put(i, row, den)

    def entries(self) -> Iterator[tuple[int, int, object]]:
        for i in sorted(self.rows):
            r = self.rows[i]
            d = self.dens.get(i)
            for j in sorted(r):
                yield i, j, r[j] if d is None else _quo(r[j], d)

    def support(self) -> Iterator[tuple[int, int]]:
        """The positions (i, j) of the nonzero entries, read without building
        an entry."""
        for i, r in self.rows.items():
            for j in r:
                yield i, j

    def is_zero(self) -> bool:
        return not self.rows

    def col_dict(self, j: int) -> dict[int, object]:
        dens = self.dens
        return {i: r[j] if i not in dens else _quo(r[j], dens[i])
                for i, r in self.rows.items() if j in r}

    def column_vec(self, j: int) -> "SpMat":
        out = SpMat(self.nrows, 1)
        dens = self.dens
        for i, r in self.rows.items():
            if j in r:
                out._put(i, {0: r[j]}, dens.get(i, 1))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpMat):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
            and self.dens == other.dens
        )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SpMat") -> "SpMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in add")
        return SpMat.assemble(self.nrows, self.ncols, [(0, 0, 1, self), (0, 0, 1, other)])

    def __neg__(self) -> "SpMat":
        return self.scale(-1)

    def __sub__(self, other: "SpMat") -> "SpMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in sub")
        return SpMat.assemble(self.nrows, self.ncols, [(0, 0, 1, self), (0, 0, -1, other)])

    def scale(self, c) -> "SpMat":
        return SpMat.assemble(self.nrows, self.ncols, [(0, 0, c, self)])

    def __matmul__(self, other: "SpMat") -> "SpMat":
        if self.ncols != other.nrows:
            raise LinAlgError("shape mismatch in matmul")
        return SpMat.assemble(self.nrows, other.ncols, [(0, 0, 1, (self, other))])

    def merge_columns(self, phi: list[int], ncols: int) -> "SpMat":
        """self @ M for the 0/1 matrix M with one 1 per row, M[q, phi[q]]:
        column q is added into column phi[q], and nothing is multiplied."""
        if len(phi) != self.ncols:
            raise LinAlgError("shape mismatch in merge_columns")
        out = SpMat(self.nrows, ncols)
        dens = self.dens
        for i, r in self.rows.items():
            acc: dict[int, int] = {}
            merged = False
            for j, v in r.items():
                c = phi[j]
                if c in acc:
                    acc[c] += v
                    merged = True
                else:
                    acc[c] = v
            if merged:
                out._put(i, {c: v for c, v in acc.items() if v}, dens.get(i, 1))
            else:
                out.rows[i] = acc
                if i in dens:
                    out.dens[i] = dens[i]
        return out

    def transpose(self) -> "SpMat":
        rows, dens = self.rows, self.dens
        # the common denominator of each column
        cden: dict[int, int] = {}
        for i, d in dens.items():
            for j in rows[i]:
                e = cden.get(j, 1)
                if e % d:
                    cden[j] = lcm(e, d)
        out: dict[int, dict[int, int]] = {}
        for i, r in rows.items():
            d = dens.get(i, 1)
            for j, v in r.items():
                e = cden.get(j, 1)
                out.setdefault(j, {})[i] = v if e == d else v * (e // d)
        result = SpMat(self.ncols, self.nrows, out)
        for j, e in cden.items():
            result._put(j, out[j], e)
        return result

    # -- stacking and index maps ------------------------------------------

    @staticmethod
    def hstack(mats: list["SpMat"]) -> "SpMat":
        if not mats:
            raise LinAlgError("hstack of no matrices")
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise LinAlgError(f"hstack of row counts {[m.nrows for m in mats]}")
        offs = [0, *accumulate(m.ncols for m in mats)]
        return SpMat.assemble(nrows, offs[-1], [(0, o, 1, m) for o, m in zip(offs, mats)])

    @staticmethod
    def vstack(mats: list["SpMat"]) -> "SpMat":
        if not mats:
            raise LinAlgError("vstack of no matrices")
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise LinAlgError(f"vstack of column counts {[m.ncols for m in mats]}")
        offs = [0, *accumulate(m.nrows for m in mats)]
        return SpMat.assemble(offs[-1], ncols, [(o, 0, 1, m) for o, m in zip(offs, mats)])

    @staticmethod
    def block_diag(mats: list["SpMat"]) -> "SpMat":
        roffs = [0, *accumulate(m.nrows for m in mats)]
        coffs = [0, *accumulate(m.ncols for m in mats)]
        return SpMat.assemble(
            roffs[-1], coffs[-1], [(r, c, 1, m) for r, c, m in zip(roffs, coffs, mats)]
        )

    def gather_rows(self, idx: list[int]) -> "SpMat":
        """The len(idx) x ncols matrix whose row p is row idx[p] of self (the
        rows are shared, not copied)."""
        if idx and (min(idx) < 0 or max(idx) >= self.nrows):
            raise LinAlgError(f"rows gathered from outside {self.nrows} rows")
        rows, dens = self.rows, self.dens
        out, odens = {}, {}
        for p, i in enumerate(idx):
            r = rows.get(i)
            if r:
                out[p] = r
                if i in dens:
                    odens[p] = dens[i]
        return SpMat(len(idx), self.ncols, out, odens)

    def place_rows(self, idx: list[int], nrows: int) -> "SpMat":
        """The nrows x ncols matrix with row p of self at row idx[p] and zeros
        elsewhere, for distinct idx; gather_rows(idx) undoes it."""
        if len(idx) != self.nrows or len(set(idx)) != len(idx):
            raise LinAlgError(
                f"placing {self.nrows} rows needs as many distinct indices, got "
                f"{len(idx)} ({len(set(idx))} distinct)"
            )
        if idx and (min(idx) < 0 or max(idx) >= nrows):
            raise LinAlgError(f"rows placed outside {nrows} rows")
        return SpMat(nrows, self.ncols,
                     {idx[p]: r for p, r in self.rows.items() if r},
                     {idx[p]: d for p, d in self.dens.items()})

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "SpMat":
        cpos = {j: p for p, j in enumerate(col_idx)}
        out = SpMat(len(row_idx), len(col_idx))
        for p, i in enumerate(row_idx):
            r = self.rows.get(i)
            if r:
                out._put(p, {cpos[j]: v for j, v in r.items() if j in cpos},
                         self.dens.get(i, 1))
        return out

    def select_columns(self, col_idx: list[int]) -> "SpMat":
        return self.submatrix(list(range(self.nrows)), col_idx)

    # -- kronecker (for tensor-product actions) ---------------------------

    def kron(self, other: "SpMat") -> "SpMat":
        nr, nc = other.nrows, other.ncols
        out = SpMat(self.nrows * nr, self.ncols * nc)
        for i, r in self.rows.items():
            di = self.dens.get(i, 1)
            for k, b in other.rows.items():
                row = {j * nc + l: a * v for j, a in r.items() for l, v in b.items()}
                out._put(i * nr + k, row, di * other.dens.get(k, 1))
        return out

    # -- elimination ------------------------------------------------------

    def _forward(self) -> tuple[list[dict[int, int]], list[int]]:
        """Forward elimination: (rows, pivots), the primitive integer rows
        of an echelon form of self, row k leading with column pivots[k]."""
        # Work rows are bucketed by their leading column: the columns are
        # swept left to right and every work row is cleared of the columns
        # already swept, so the rows holding column j are those that lead
        # with it. A bucket holds (row length, position in self, row), and
        # the pivot is the shortest row, the first in self on a tie.
        lead: dict[int, list[tuple[int, int, dict]]] = {}
        for pos, r in enumerate(self.rows.values()):
            if r:
                lead.setdefault(min(r), []).append((len(r), pos, _primitive(dict(r))))
        done: list[dict[int, int]] = []
        pivots: list[int] = []
        for j in range(self.ncols):
            bucket = lead.pop(j, None)
            if bucket is None:
                continue
            bucket.sort()  # positions are distinct, so rows are never compared
            piv = bucket[0][2]
            for _, pos, r in bucket[1:]:
                _eliminate(r, j, piv)
                if r:
                    _primitive(r)
                    lead.setdefault(min(r), []).append((len(r), pos, r))
            done.append(piv)
            pivots.append(j)
        return done, pivots

    def rref(self) -> tuple["SpMat", list[int]]:
        """Canonical reduced row echelon form.

        Leftmost-pivot, rows ordered by pivot column, pivots normalized to 1.
        Returns (R, pivot_columns).
        """
        done, pivots = self._forward()
        # Back substitution, last row first: the rows below k are reduced, so
        # clearing row k's later pivot columns brings in no other pivot column.
        pos = {p: k for k, p in enumerate(pivots)}
        for k in range(len(done) - 2, -1, -1):
            row = done[k]
            for c in [c for c in row if c in pos and c != pivots[k]]:
                _eliminate(row, c, done[pos[c]])
                _primitive(row)
        R = SpMat(self.nrows, self.ncols)
        for k, row in enumerate(done):
            # row is primitive, so row / p is in lowest terms
            p = row[pivots[k]]
            if p < 0:
                row = {c: -v for c, v in row.items()}
                p = -p
            R.rows[k] = row
            if p != 1:
                R.dens[k] = p
        return R, pivots

    def rank(self) -> int:
        """The number of pivots of a forward elimination (no back
        substitution, no result matrix)."""
        return len(self._forward()[1])

    def kernel_basis(self) -> "SpMat":
        """Columns span {x : self @ x = 0}; canonical (free vars = identity)."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = {f: k for k, f in enumerate(j for j in range(self.ncols) if j not in pivset)}
        out = SpMat(self.ncols, len(free))
        for f, k in free.items():
            out.rows[f] = {k: 1}
        for i, p in enumerate(pivots):
            row = {free[c]: -v for c, v in R.rows[i].items() if c != p}
            out._put(p, row, R.dens.get(i, 1))
        return out

    def solve(self, rhs: "SpMat") -> "SpMat":
        """A particular X with self @ X = rhs (free variables zero).

        Raises LinAlgError when inconsistent.
        """
        if rhs.nrows != self.nrows:
            raise LinAlgError("shape mismatch in solve")
        n = self.ncols
        R, pivots = SpMat.hstack([self, rhs]).rref()
        if pivots and pivots[-1] >= n:
            raise LinAlgError("inconsistent linear system")
        X = SpMat(n, rhs.ncols)
        for i, p in enumerate(pivots):
            X._put(p, {j - n: v for j, v in R.rows[i].items() if j >= n}, R.dens.get(i, 1))
        return X

    def independent_columns(self) -> list[int]:
        """Indices of the lexicographically first maximal independent column
        set: the pivots of a forward elimination."""
        return self._forward()[1]

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
        red, den = _from_values({j: v for j, v in vec.items() if v})
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

    @property
    def rank(self) -> int:
        return len(self.rows)
