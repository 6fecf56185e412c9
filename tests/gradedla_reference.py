"""Reference brackets and the Killing form, on the structure constants of
`artifact.gradedla`.

The pipeline needs only the Killing pairing B(e_r, f_r) of each p_+ root
(`GradedLieAlgebra.killing_pairing`, for the dual bases). The tests check
the structure constants against the Jacobi identity and the invariance of
the whole Killing form, which are built here.
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


def killing_form(g: GradedLieAlgebra) -> SpMat:
    """Gram matrix of B on the basis (trace form of the adjoint action)."""
    rs = g.rs
    out = SpMat(g.dim, g.dim)
    # h-block: B(h_i, h_j) = sum over roots of <alpha_i^vee, r><alpha_j^vee, r>
    for i in range(rs.rank):
        for j in range(rs.rank):
            s = QZERO
            for r in rs.pos_roots:
                s += 2 * rs.coroot_pairing(i, r) * rs.coroot_pairing(j, r)
            out.set(g.index[("h", i)], g.index[("h", j)], s)
    # root pairs: only B(e_a, f_a) survives by weight bookkeeping
    for r in rs.pos_roots:
        prod = g.adjoint_matrix(("e", r)) @ g.adjoint_matrix(("f", r))
        tr = sum(prod.get(i, i) for i in range(g.dim))
        ie, jf = g.index[("e", r)], g.index[("f", r)]
        out.set(ie, jf, tr)
        out.set(jf, ie, tr)
    return out
