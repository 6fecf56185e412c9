"""Certificates: the identities the BGG pipeline relies on, checked exactly.

`bggcore` computes; this module checks: the map certificates the pipeline
raises on (`certify_map`, `certify_from_left`) and the identity battery
`verify` reports. Pipeline objects (a generated submodule ``gs``, a splitter
``chain``) come in as arguments; nothing here imports `bggcore`.

Every check that compares products is one signed ``SpMat.assemble`` of
product blocks, tested with ``is_zero``: the two sides are never built
apart and subtracted.
"""

from __future__ import annotations

from itertools import chain

from .gradedla import GradedLieAlgebra
from .hodge import CochainComplex, kostant_oracle
from .jetcalc import ShapeMismatch, check_equivariance, jet1_left_action
from .linalg import SpMat, kron_blocks
from .repmod import PModule
from .rootspace import Weight, levi_weyl_dimension


class CertificationFailure(Exception):
    """A map that must be a P-homomorphism has nonzero residuals, or a
    structural identity of the pipeline does not hold."""


def certify_map(mat: SpMat, source: PModule, target: PModule, what: str) -> None:
    """Certify mat as a P-module map source -> target; raises
    CertificationFailure naming ``what`` and the labels with residuals
    otherwise."""
    residuals = check_equivariance(mat, source, target)
    if residuals:
        raise CertificationFailure(f"{what} residuals on {list(residuals)}")


def certify_from_left(dt: SpMat, W: PModule, phi: list[int], ncols: int,
                      target: PModule) -> SpMat:
    """The BGG operator D = Dt o iota (Dt placed through phi, the column map
    of iota), certified as a P-module map Jbar -> target, for Dt defined on
    J^1(W) and Jbar the module phi embeds in J^1(W) (J^1(W) itself, phi the
    identity, when W = Jbar^0). Returns D, or raises CertificationFailure as
    `certify_map` does.

    For each label, A'_Z D must equal Dt A^{J^1}_Z placed through phi: by
    equalizer condition (4) that is D A_Z, and (4) holds because Jbar is the
    equalizer of two P-maps certified with W (the `jetcalc` module
    docstring). Each Dt A^{J^1}_Z goes through phi inside its residual's
    assembly, so no copy of it is placed apart. The action of Jbar is never
    built; phi is certified by `jetcalc.equalizer_index_maps`."""
    if dt.nrows != target.dim:
        raise ShapeMismatch(f"map has {dt.nrows} rows, expected {target.dim}")

    mat = SpMat.assemble(dt.nrows, ncols, [(0, phi, 1, dt)])
    residuals = [
        lab for lab, right in jet1_left_action(dt, W, target.actions).items()
        if not SpMat.assemble(dt.nrows, ncols, [
            (0, 0, 1, (target.actions[lab], mat)), (0, phi, -1, right),
        ]).is_zero()
    ]
    if residuals:
        raise CertificationFailure(f"operator residuals on {sorted(residuals)}")
    return mat


def verify_cochain_identities(cc: CochainComplex) -> dict[str, bool]:
    """d^2 = 0, dstar^2 = 0 and dstar^T G_n = G_{n+1} d on every level. Each
    G_n is built once: G_{n+1} is carried into the next level's check."""
    out = {"d_squared_zero": True, "codifferential_squared_zero": True,
           "adjointness": True}
    g_hi = cc.inner(0)
    for n in range(cc.top):
        if not (cc.dels[n + 1] @ cc.dels[n]).is_zero():
            out["d_squared_zero"] = False
        if not (cc.delstars[n] @ cc.delstars[n + 1]).is_zero():
            out["codifferential_squared_zero"] = False
        g_lo, g_hi = g_hi, cc.inner(n + 1)
        # dstar^T G_n = G_{n+1} d
        if not SpMat.assemble(cc.dim(n + 1), cc.dim(n), [
            (0, 0, 1, (cc.delstars[n].transpose(), g_lo)),
            (0, 0, -1, (g_hi, cc.dels[n])),
        ]).is_zero():
            out["adjointness"] = False
    return out


def verify_codifferential_leibniz(cc: CochainComplex, n: int) -> bool:
    """dstar(Z ^ f) = -Z.f - Z ^ dstar(f) on C^n for basis Z = eta_a of p_+,
    as one signed sum per a. The wedge on C^k is eps_a (x) 1_V, placed from
    the bare wedges of the complex's window with `linalg.kron_blocks`, never
    stored: (eps_a (x) 1) dstar_{n-1} as plain blocks of dstar_{n-1}'s row
    blocks, and dstar_n (eps_a (x) 1) as one product block whose right
    factor is assembled for that a and dropped with the block. Z.f is A^n_Z
    placed as plain blocks, from Lambda^n p_+ and V.
    Reads the window's records n and n + 1, n first, so that run over n in
    order each record is built once. On C^0 the last term is a product
    through C^{-1} = 0, so it is zero."""
    roots = cc.g.pplus_roots
    dim, m = cc.dim(n), cc.V.dim
    below = cc.bare_wedges(n - 1)
    eps = cc.bare_wedges(n)
    for a in range(len(roots)):
        if not SpMat.assemble(dim, dim, [
            (0, 0, 1, (cc.delstars[n],
                       SpMat.assemble(cc.dim(n + 1), dim, kron_blocks((eps[a], m))))),
            *cc.action_blocks(n, ("e", roots[a])),
            *kron_blocks((below[a], m), right=cc.delstars[n - 1]),
        ]).is_zero():
            return False
    return True


def verify_differential_commutator(cc: CochainComplex, n: int) -> bool:
    """W.(del f) - del(W.f) = (n+1) sum_a eta_a ^ ([W, xi_a].f) on C^n,
    checked as one signed sum of products for each label; the action of
    [W, xi_a] is never assembled. A^{n+1}_W d_n is placed as product blocks
    with d_n on the right. d_n A^n_W is one product block, with A^n_W
    assembled for this label only and dropped after it. Each bracket term
    is (eps_a (x) 1) A^n_B = (eps_a L_B) (x) 1 + eps_a (x) M_B, for the bare
    wedges eps_a: Lambda^n -> Lambda^{n+1} and B's matrices L_B on
    Lambda^n p_+ and M_B on V, so no unit wedge is read. The first parts of
    a label's terms are placed as (sum of c eps_a L_B) (x) 1, a sum that is
    assembled for that label and lives only while its blocks are placed.
    Reads Lambda^n and Lambda^{n+1}."""
    g, V = cc.g, cc.V
    lam = cc.wedge_module(n).actions
    eps = cc.bare_wedges(n)
    d = cc.dels[n]
    dim = cc.dim(n)
    wedge_dims = (len(cc.wedge_tuples[n + 1]), len(cc.wedge_tuples[n]))

    def brackets(lab):
        terms = [(-(n + 1) * c, a, blab) for a, blab, c in g.xi_brackets[lab]]
        wedged = SpMat.assemble(*wedge_dims, [(0, 0, c, (eps[a], lam[blab]))
                                              for c, a, blab in terms])
        yield from kron_blocks((wedged, V.dim))
        for c, a, blab in terms:
            yield from kron_blocks((eps[a], V.actions[blab]), c=c)

    for lab in g.p_labels:
        if g.grade_of(lab) < 1:
            continue
        blocks = chain(
            cc.action_blocks(n + 1, lab, right=d),
            [(0, 0, -1, (d, SpMat.assemble(dim, dim, cc.action_blocks(n, lab))))],
            brackets(lab),
        )
        if not SpMat.assemble(cc.dim(n + 1), dim, blocks).is_zero():
            return False
    return True


def oracle_agrees(g: GradedLieAlgebra, lam_mod: Weight, columns) -> bool:
    """The diagram columns (per level, components with ``label``,
    ``e_eigenvalue`` and ``dim``) are the ones Kostant's theorem predicts,
    and each component's dim is the Levi Weyl dimension of its label."""
    expected = kostant_oracle(g, lam_mod)
    if len(expected) != len(columns):
        return False
    for lvl, labels in enumerate(expected):
        got = sorted((c.label, c.e_eigenvalue) for c in columns[lvl])
        want = sorted((l, -g.e_eigenvalue(l)) for l in labels)
        if got != want:
            return False
        if any(c.dim != levi_weyl_dimension(g.par, c.label) for c in columns[lvl]):
            return False
    return True


def verify_splitter_projection(gs, chain) -> bool:
    """pi^{i+1}_i o L_i = p_i for each i. pi^{i+1}_i: E/E^{i+1} -> E/E^i
    keeps the leading coordinates, so the first dim E/E^i rows of L_i must
    be the footpoint projection."""
    for i, li in enumerate(chain.maps, 1):
        rows = gs.quotient(i).dim
        if li.gather_rows(list(range(rows))) != SpMat.identity(rows, li.ncols):
            return False
    return True


def verify_splitter_defect(gs, chain) -> bool:
    """The defect of L_i equals box^{-1}(W.(box o j_i o (L_{i-1} o J^1(pi) -
    p_i))) for grade-one W, L_0 the zero map on J^1(E/E^0) = 0: at i = 1 box
    kills -p_1 on the harmonic block, so L_1 commutes with W. L_{i-1} o J^1(pi) is
    L_{i-1} through the slot-prefix map (slot b, column t) -> b dim E/E^i + t,
    and L_i A_Z is `jet1_left_action`: no J^1 matrix is built."""
    g = gs.cc.g
    d = len(g.pplus_roots)
    grade1 = [l for l in g.p_labels if g.grade_of(l) == 1]
    below = [SpMat(gs.quotient(1).dim, 0), *chain.maps]
    for i, li in enumerate(chain.maps, 1):
        qi, qn, width = gs.quotient(i), gs.quotient(i + 1), li.ncols
        prefix = [b * qi.dim + t for b in range(1 + d) for t in range(gs.quotient(i - 1).dim)]
        inner = SpMat.assemble(qi.dim, width, [
            (0, prefix, 1, below[i - 1]),
            (0, 0, -1, SpMat.identity(qi.dim, width)),
        ])
        idx = list(range(qn.dim))
        box_qn = gs.box_on_e().submatrix(idx, idx)
        boxed = box_qn @ inner.place_rows(list(range(qi.dim)), qn.dim)
        left = jet1_left_action(li, qi, grade1)
        for lab in grade1:
            # the defect L_i A_Z - A'_Z L_i, less its expected value
            lifted = gs.lift_top_block(i, qn.actions[lab] @ boxed)
            if lifted is None:
                return False
            if not SpMat.assemble(qn.dim, width, [
                (0, 0, 1, left[lab]), (0, 0, -1, (qn.actions[lab], li)), (0, 0, -1, lifted),
            ]).is_zero():
                return False
    return True
