"""Sparse exact linear algebra over the rationals.

Everything downstream (root systems, structure constants, cochain complexes,
jet modules) runs through this layer, so it is deliberately small and boring:
a dict-of-rows matrix with exact rational entries, Gaussian elimination with
leftmost-pivot selection (canonical RREF, deterministic output), and the
handful of derived routines (rank, kernel, solve, a column basis) the rest
of the package needs. It is the one home of elimination: every span, rank
and closure elsewhere is a call to these.

The scalar type Q is fractions.Fraction. A matrix stores each row as a dict
of Python ints over one positive integer denominator: row i is
``rows[i] / dens[i]``, and ``dens`` holds only the denominators that are not
1, so an integral matrix is stored as plain int rows. A stored row is in
lowest terms (the gcd of its entries and its denominator is 1), holds no
zero and is never empty, so the form is canonical and two matrices are equal
exactly when their dicts are. Q is built only at the boundary: ``get``,
``entries`` and ``col_dict`` hand out an entry as an int when integral and
as Q otherwise, and the constructors take any rational.

The row format is private to this module: no other module reads or writes
``rows`` or ``dens``. Code elsewhere builds a matrix from blocks with one
assembler, ``SpMat.assemble(nrows, ncols, [(row_off, col_off, coef, M), ...])``,
which sums the scaled blocks, drops zeros and writes each row in stored form;
col_off may be a column map, so M composed with an index map on the right is
one more block of the same loop. ``gather_rows``, ``place_rows`` and
``from_columns`` move rows and columns by index maps. A matrix is never
changed after it is built, so matrices share rows, and the index maps move
them, and their denominators, without copying. The sums, scalings, stacks
and Kronecker products here are assembler calls too: ``kron_blocks`` gives
the blocks of a sum of Kronecker products L (x) M, alone or times a matrix
on the right, with 1_n written as the int n and never built, so
L (x) 1 + 1 (x) M and (L (x) 1) @ right are blocks of the same helper. One
loop accumulates and normalises rows.

Products accumulate in the assembler as well. A block M may be a product
block (X, Y), standing for X @ Y: each row of X is multiplied out against
Y's rows, brought to Y's common denominator, straight into the output row
the other blocks write, so X @ Y is never built or normalised on its own;
``X @ Y`` is the assembly of that one block, so there is one product loop. A
certificate that compares products, such as A' M = M A, is one signed
assembly of product blocks tested with ``is_zero``.

Every kernel runs on ints. Rows are summed over the lcm of their
denominators and each written row is divided once by the gcd of its entries
and its denominator; a block row added to an unshared output row over the
same denominator is summed as it is, with no lcm and no rescaling. The
transpose brings the rows it combines to a common denominator the same way.
Row reduction is
fraction-free: the forward pass starts from the stored integer rows divided
by their content, eliminates with r <- p_j r - r_j p and
divides by the content again, sweeping the columns left to right with the
rows bucketed by their leading column; a rank and a set of independent
columns read its pivots. The RREF then clears the entries above the pivots
by back substitution; a finished row over its pivot is already in lowest
terms. The RREF is unique and the pivot choice depends only on sparsity, so
the result is the one plain rational elimination gives.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator

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
    return v.numerator, v.denominator


def _quo(num: int, den: int):
    """num / den as an entry is handed out: an int when integral, Q otherwise."""
    q, rem = divmod(num, den)
    return Q(num, den) if rem else q


def _from_values(vals: dict) -> tuple[dict, int]:
    """(ints, den) with vals == ints / den, for nonzero rationals vals: den is
    the lcm of their denominators, which leaves the row in lowest terms. An
    all-int row is returned as it is, over 1."""
    if all(type(v) is int for v in vals.values()):
        return vals, 1
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


def kron_blocks(*pairs, c=1, right: "SpMat | None" = None, col_off: int = 0) -> Iterator[tuple]:
    """The ``SpMat.assemble`` blocks of c sum_t L_t (x) M_t, placed at
    (0, col_off), or, given ``right``, of (c sum_t L_t (x) M_t) @ right, for
    the ``pairs`` (L_t, M_t). Summed with other blocks in one assembly, they
    add the sum without building it. Either factor may be an int n, standing
    for 1_n, which is never built: the Kronecker sum L (x) 1_m + 1_l (x) M is
    the pairs (L, m) and (l, M). L may also be a list of terms (coef, X, Y),
    standing for the sum of coef X @ Y.

    Without right, each entry v of L places c v M. With right, row block I
    of the result is c sum_J L_IJ M right_J, right_J the J-th block of
    M.ncols rows of right: each nonzero right_J is gathered once per call,
    its rows shared, not copied, and every pair reads it; an entry of L
    places right_J itself when M is 1_m, and the product block (M, right_J)
    otherwise, and a zero right_J places no block.

    A 1x1 M = (mu) is one block, mu L or the product block (L, right), never
    one block per entry, and a zero one places nothing. Without right, each
    term of a list L is then a product block; any other list L is assembled
    here, and lives as long as its blocks."""
    parts = None
    for L, M in pairs:
        if type(M) is int:
            m = n = M
        else:
            m, n = M.nrows, M.ncols
        if type(L) is list:
            if not L:
                continue
            if right is not None or m != 1 or n != 1:
                L = SpMat.assemble(L[0][1].nrows, L[0][2].ncols,
                                   [(0, 0, coef, (X, Y)) for coef, X, Y in L])
        if m == 1 == n:
            if type(M) is int:
                mu = c
            elif M.rows:
                mu = c * M.get(0, 0)
            else:
                continue
            if type(L) is int:
                yield 0, col_off, mu, SpMat.identity(L) if right is None else right
            elif type(L) is list:
                for coef, X, Y in L:
                    yield 0, col_off, mu * coef, (X, Y)
            else:
                yield 0, col_off, mu, L if right is None else (L, right)
        elif right is None:
            if type(M) is int:
                M = SpMat.identity(m)
            if type(L) is int:
                for i in range(L):
                    yield i * m, col_off + i * n, c, M
            else:
                for i, j, v in L.entries():
                    yield i * m, col_off + j * n, c * v, M
        else:
            if parts is None:
                parts = {j: right.gather_rows(range(j * n, (j + 1) * n))
                         for j in sorted({k // n for k in right.rows})}
            if type(L) is int:
                for i, part in parts.items():
                    yield i * m, col_off, c, part if type(M) is int else (M, part)
            else:
                for i, j, v in L.entries():
                    part = parts.get(j)
                    if part is not None:
                        yield i * m, col_off, c * v, part if type(M) is int else (M, part)


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
    def assemble(cls, nrows: int, ncols: int, blocks: Iterable[tuple]) -> "SpMat":
        """The nrows x ncols matrix sum of coef * M over the blocks
        (row_off, col_off, coef, M), with M's (0, 0) entry placed at
        (row_off, col_off). M is a matrix or a product block (X, Y), which
        stands for X @ Y: its rows are accumulated straight into the rows the
        other blocks write, and X @ Y itself is never built. For a matrix M,
        col_off may instead be a column map, a sequence of M.ncols columns of
        the output: column j of M lands in column col_off[j], so the block is
        M @ P for the 0/1 matrix P with P[j, col_off[j]] = 1, and nothing is
        multiplied. Overlapping entries are summed and zeros dropped. A row
        only one plain block writes, with a unit coefficient and either no
        column offset or a map that leaves each of its columns in place, is
        M's row itself, shared; a row two blocks hit, a product row, a row
        whose columns a map collides, or a row scaled by a non-integral
        coefficient is brought to lowest terms once at the end."""
        out: dict[int, dict[int, int]] = {}
        odens: dict[int, int] = {}
        shared: set[int] = set()  # rows of out that are a block's own rows
        dirty: set[int] = set()

        def common(i: int, d: int) -> int:
            """Bring out row i (which exists) and a block row over d to their
            common denominator; returns the factor the block row needs. A
            caller skips it when row i is not shared and is over d already,
            where it would return 1 and change nothing."""
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
            cols = None
            if type(coff) is not int:  # a column map: column j lands in cols[j]
                cols, coff = coff, 0
                if (type(m) is tuple or len(cols) != mc
                        or cols and not 0 <= min(cols) <= max(cols) < ncols):
                    raise LinAlgError(f"{mr}x{mc} {'product ' * (type(m) is tuple)}block "
                                      f"through a map of {len(cols)} columns into {ncols}")
                mc = 0
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
                                if i in shared or odens.get(i, 1) != d:
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
                    if cols is not None:
                        row = {}
                        for j, v in r.items():
                            j = cols[j]
                            row[j] = row.get(j, 0) + f * v
                        if len(row) < len(r):
                            dirty.add(i)  # columns collided: the sum may cancel
                        elif f == 1 and cd == 1 and list(row) == list(r):
                            row = r  # the map left every column in place
                            shared.add(i)
                        out[i] = row
                    elif f == 1 and cd == 1 and not coff:
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
                if i in shared or odens.get(i, 1) != d:
                    f *= common(i, d)
                orow = out[i]
                get = orow.get
                if cols is not None:
                    for j, v in r.items():
                        j = cols[j]
                        orow[j] = get(j, 0) + f * v
                elif coff:
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
                if not any(row.values()):
                    del out[i]
                    odens.pop(i, None)
                    continue
                row = {j: v for j, v in row.items() if v}
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

    def rows_within(self, allowed: list) -> bool:
        """Whether each row i has its nonzero entries only in the columns of
        the set allowed[i]: one set comparison per stored row, no entry
        read."""
        return all(allowed[i].issuperset(r) for i, r in self.rows.items())

    def col_dict(self, j: int) -> dict[int, object]:
        dens = self.dens
        return {i: r[j] if i not in dens else _quo(r[j], dens[i])
                for i, r in self.rows.items() if j in r}

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

