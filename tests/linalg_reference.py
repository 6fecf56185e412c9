"""Reference kernels: the product and the row reduction in plain rational
arithmetic, one scalar operation per term.

``artifact.linalg`` runs both on Python ints (cleared rows, fraction-free
elimination). These are the straightforward versions it replaced, kept so the
tests can compare the integer kernels with an independent computation; the
kernel and solve references are built on ``reference_rref`` the same way the
``SpMat`` methods are built on ``SpMat.rref``.
"""

from __future__ import annotations

from artifact.linalg import QONE, QZERO, LinAlgError, SpMat


def reference_matmul(a: SpMat, b: SpMat) -> SpMat:
    if a.ncols != b.nrows:
        raise LinAlgError("shape mismatch in matmul")
    out: dict[int, dict[int, object]] = {}
    brows = b.rows
    for i, r in a.rows.items():
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
    return SpMat(a.nrows, b.ncols, out)


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
    work = [dict(r) for r in m.rows.values()]
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
    R = SpMat(m.nrows, m.ncols)
    for newi, k in enumerate(order):
        R.rows[newi] = done[k]
    return R, sorted(pivots)


def reference_kernel_basis(m: SpMat) -> SpMat:
    R, pivots = reference_rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivset]
    out = SpMat(m.ncols, len(free))
    pivrow = {p: i for i, p in enumerate(pivots)}
    for k, f in enumerate(free):
        out.rows.setdefault(f, {})[k] = QONE
        for p in pivots:
            v = R.rows.get(pivrow[p], {}).get(f, QZERO)
            if v:
                out.rows.setdefault(p, {})[k] = -v
    return out


def reference_solve(m: SpMat, rhs: SpMat) -> SpMat:
    if rhs.nrows != m.nrows:
        raise LinAlgError("shape mismatch in solve")
    R, pivots = reference_rref(SpMat.hstack([m, rhs]))
    if any(p >= m.ncols for p in pivots):
        raise LinAlgError("inconsistent linear system")
    X = SpMat(m.ncols, rhs.ncols)
    pivrow = {p: i for i, p in enumerate(pivots)}
    for p in pivots:
        row = R.rows.get(pivrow[p], {})
        xr = {j - m.ncols: v for j, v in row.items() if j >= m.ncols}
        if xr:
            X.rows[p] = xr
    return X
