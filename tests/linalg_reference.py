"""Reference kernels: the linalg routines in plain rational arithmetic, one
scalar operation per term, plus the small helpers only the tests need.

``artifact.linalg`` runs every kernel on integer rows over one denominator
(cleared rows, fraction-free elimination). These are straightforward
versions on dicts of ``Q`` values, kept so the tests can compare the integer
kernels with an independent computation. They read a matrix only through
``entries`` and build one only through ``from_entries``, so they do not
depend on the stored row format; the kernel and solve references are built
on ``reference_rref`` the same way the ``SpMat`` methods are built on
``SpMat.rref``.
"""

from __future__ import annotations

from fractions import Fraction

from artifact.linalg import QONE, QZERO, LinAlgError, Q, SpMat


# -- test-only helpers --------------------------------------------------------

def qparse(s: str):
    """Parse 'p' or 'p/q' back into a rational."""
    f = Fraction(s.strip())
    return Q(f.numerator, f.denominator)


def to_dense(m: SpMat) -> list[list]:
    out = [[QZERO] * m.ncols for _ in range(m.nrows)]
    for i, j, v in m.entries():
        out[i][j] = v
    return out


def nnz(m: SpMat) -> int:
    return sum(1 for _ in m.entries())


def row_dicts(m: SpMat) -> dict[int, dict[int, object]]:
    """{i: {j: value}} over the nonzero rows, values as ``entries`` gives them."""
    out: dict[int, dict[int, object]] = {}
    for i, j, v in m.entries():
        out.setdefault(i, {})[j] = v
    return out


def from_rows(nrows: int, ncols: int, rows: dict) -> SpMat:
    return SpMat.from_entries(nrows, ncols, {
        (i, j): v for i, r in rows.items() for j, v in r.items()
    })


def with_row(m: SpMat, i: int, row: dict) -> SpMat:
    """m with row i replaced by the dict row."""
    rows = row_dicts(m)
    rows[i] = row
    return from_rows(m.nrows, m.ncols, rows)


def reference_closure(seeds: SpMat, ops: list[SpMat]) -> SpMat:
    """Independent columns spanning the smallest space that holds the
    columns of seeds and is stable under every op: a naive fixpoint that
    hstacks the images onto the span until its rank stops growing."""
    span, rank = seeds, -1
    while True:
        span = SpMat.hstack([span] + [A @ span for A in ops])
        pivots = reference_rref(span)[1]
        span = span.select_columns(pivots)
        if len(pivots) == rank:
            return span
        rank = len(pivots)


# -- reference kernels --------------------------------------------------------

def reference_matmul(a: SpMat, b: SpMat) -> SpMat:
    if a.ncols != b.nrows:
        raise LinAlgError("shape mismatch in matmul")
    out: dict[int, dict[int, object]] = {}
    brows = row_dicts(b)
    for i, r in row_dicts(a).items():
        acc: dict[int, object] = {}
        for k, x in r.items():
            br = brows.get(k)
            if br is None:
                continue
            for j, y in br.items():
                s = acc.get(j, QZERO) + x * y
                if s:
                    acc[j] = s
                else:
                    acc.pop(j, None)
        if acc:
            out[i] = acc
    return from_rows(a.nrows, b.ncols, out)


def reference_assemble(nrows: int, ncols: int, blocks) -> SpMat:
    acc: dict[tuple[int, int], object] = {}
    for roff, coff, c, m in blocks:
        if roff < 0 or coff < 0 or roff + m.nrows > nrows or coff + m.ncols > ncols:
            raise LinAlgError("block outside the target")
        for i, j, v in m.entries():
            key = (roff + i, coff + j)
            acc[key] = acc.get(key, QZERO) + Q(c) * v
    return SpMat.from_entries(nrows, ncols, acc)


def reference_merge_columns(m: SpMat, phi: list[int], ncols: int) -> SpMat:
    acc: dict[tuple[int, int], object] = {}
    for i, j, v in m.entries():
        acc[(i, phi[j])] = acc.get((i, phi[j]), QZERO) + v
    return SpMat.from_entries(m.nrows, ncols, acc)


def reference_transpose(m: SpMat) -> SpMat:
    return SpMat.from_entries(m.ncols, m.nrows, {(j, i): v for i, j, v in m.entries()})


def reference_kron(a: SpMat, b: SpMat) -> SpMat:
    return SpMat.from_entries(a.nrows * b.nrows, a.ncols * b.ncols, {
        (i * b.nrows + k, j * b.ncols + l): x * y
        for i, j, x in a.entries() for k, l, y in b.entries()
    })


def _subtract_multiple(r: dict, j: int, piv: dict) -> None:
    """r <- r - r[j] * piv, for a row piv with piv[j] == 1."""
    c0 = r.pop(j)
    for c, v in piv.items():
        if c == j:
            continue
        s = r.get(c, QZERO) - c0 * v
        if s:
            r[c] = s
        else:
            r.pop(c, None)


def reference_rref(m: SpMat) -> tuple[SpMat, list[int]]:
    """Canonical RREF: leftmost pivot, rows by pivot column, pivots 1."""
    work = list(row_dicts(m).values())
    done: list[dict[int, object]] = []
    pivots: list[int] = []
    for j in range(m.ncols):
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
                _subtract_multiple(r, j, piv)
        work = [r for r in work if r]
        for r in done:
            if j in r:
                _subtract_multiple(r, j, piv)
        done.append(piv)
        pivots.append(j)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    R = from_rows(m.nrows, m.ncols, {newi: done[k] for newi, k in enumerate(order)})
    return R, sorted(pivots)


def reference_kernel_basis(m: SpMat) -> SpMat:
    R, pivots = reference_rref(m)
    rrows = row_dicts(R)
    pivset = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivset]
    out: dict[tuple[int, int], object] = {}
    pivrow = {p: i for i, p in enumerate(pivots)}
    for k, f in enumerate(free):
        out[(f, k)] = QONE
        for p in pivots:
            v = rrows.get(pivrow[p], {}).get(f, QZERO)
            if v:
                out[(p, k)] = -v
    return SpMat.from_entries(m.ncols, len(free), out)


def reference_solve(m: SpMat, rhs: SpMat) -> SpMat:
    if rhs.nrows != m.nrows:
        raise LinAlgError("shape mismatch in solve")
    aug = reference_assemble(m.nrows, m.ncols + rhs.ncols, [(0, 0, 1, m), (0, m.ncols, 1, rhs)])
    R, pivots = reference_rref(aug)
    if any(p >= m.ncols for p in pivots):
        raise LinAlgError("inconsistent linear system")
    rrows = row_dicts(R)
    out: dict[tuple[int, int], object] = {}
    pivrow = {p: i for i, p in enumerate(pivots)}
    for p in pivots:
        for j, v in rrows.get(pivrow[p], {}).items():
            if j >= m.ncols:
                out[(p, j - m.ncols)] = v
    return SpMat.from_entries(m.ncols, rhs.ncols, out)
