"""Reference brackets, adjoint matrices and the Killing form, on the
structure constants of `artifact.gradedla`.

The pipeline needs only the Killing pairing B(e_r, f_r) of each p_+ root
(`GradedLieAlgebra.killing_pairing`, the sum over the positive roots alpha
of <alpha, r^vee>^2, read off the root system with no bracket), divided by
the long-root value 2h^vee (`GradedLieAlgebra.pairing_d`). The tests
check the structure constants against the Jacobi identity and the
invariance of the whole Killing form, and the pairing against the trace
tr(ad e_r ad f_r) of a product of adjoint matrices, which are built here.
"""

from __future__ import annotations

from artifact.gradedla import GradedLieAlgebra, Label
from artifact.linalg import QZERO, SpMat


def bracket_vec(g: GradedLieAlgebra, v1: dict, v2: dict) -> dict:
    """Bracket of vectors given as {label: coeff} dicts."""
    out: dict[Label, object] = {}
    for l1, c1 in v1.items():
        for l2, c2 in v2.items():
            for l3, c3 in g.bracket_labels(l1, l2).items():
                s = out.get(l3, QZERO) + c1 * c2 * c3
                if s:
                    out[l3] = s
                else:
                    out.pop(l3, None)
    return out


def adjoint_matrix(g: GradedLieAlgebra, label: Label) -> SpMat:
    """ad(label) on g, in the basis order of g."""
    return SpMat.from_entries(g.dim, g.dim, {
        (g.index[l3], j): c
        for j, l2 in enumerate(g.basis)
        for l3, c in g.bracket_labels(label, l2).items()
    })


def trace(m: SpMat):
    return sum(m.get(i, i) for i in range(m.nrows))


def killing_form(g: GradedLieAlgebra) -> SpMat:
    """Gram matrix of B on the basis (trace form of the adjoint action)."""
    rs = g.rs
    entries = {}
    # h-block: B(h_i, h_j) = sum over roots of <alpha_i^vee, r><alpha_j^vee, r>
    for i in range(rs.rank):
        for j in range(rs.rank):
            s = QZERO
            for r in rs.pos_roots:
                s += 2 * rs.coroot_pairing(i, r) * rs.coroot_pairing(j, r)
            entries[g.index[("h", i)], g.index[("h", j)]] = s
    # root pairs: only B(e_a, f_a) survives by weight bookkeeping
    for r in rs.pos_roots:
        tr = trace(adjoint_matrix(g, ("e", r)) @ adjoint_matrix(g, ("f", r)))
        ie, jf = g.index[("e", r)], g.index[("f", r)]
        entries[ie, jf] = entries[jf, ie] = tr
    return SpMat.from_entries(g.dim, g.dim, entries)
