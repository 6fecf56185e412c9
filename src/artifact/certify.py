"""Certificates: the identities the BGG pipeline relies on, checked exactly.

`bggcore` computes; this module checks: the map certificate the pipeline
raises on (`certify_map`), the identity battery `verify` reports, and, for
the tests, the twisted derivative and the tilde prolongations on which the
splitter chain is natural. Pipeline objects (a generated submodule ``gs``,
a splitter ``chain``) come in as arguments; nothing here imports `bggcore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gradedla import GradedLieAlgebra
from .hodge import CochainComplex, kostant_oracle, twisted_matrix, unit_wedges
from .jetcalc import (
    JetModule,
    PModMap,
    SemiHolonomicJet,
    check_equivariance,
    jet1,
    jet1_map_matrix,
    prolong,
    semiholonomic,
)
from .linalg import LinAlgError, QZERO, SpMat
from .repmod import PModule
from .rootspace import Weight


class CertificationFailure(Exception):
    """A map that must be a P-homomorphism has nonzero residuals, or a
    structural identity of the pipeline does not hold."""


def certify_map(mat: SpMat, source: PModule, target: PModule, what: str) -> PModMap:
    """mat as a certified P-module map; raises CertificationFailure naming
    ``what`` and the labels with residuals otherwise."""
    pm = check_equivariance(mat, source, target)
    if not pm.certified:
        raise CertificationFailure(f"{what} residuals on {sorted(pm.residuals)}")
    return pm


def verify_cochain_identities(cc: CochainComplex) -> dict[str, bool]:
    out = {"d_squared_zero": True, "codifferential_squared_zero": True,
           "adjointness": True}
    for n in range(cc.top):
        if n + 1 < cc.top and not (cc.dels[n + 1] @ cc.dels[n]).is_zero():
            out["d_squared_zero"] = False
        if n + 1 < cc.top and not (cc.delstars[n] @ cc.delstars[n + 1]).is_zero():
            out["codifferential_squared_zero"] = False
        lhs = cc.delstars[n].transpose() @ cc.inner[n]
        rhs = cc.inner[n + 1] @ cc.dels[n]
        if lhs != rhs:
            out["adjointness"] = False
    return out


def verify_codifferential_leibniz(cc: CochainComplex) -> bool:
    """dstar(Z ^ f) = -Z.f - Z ^ dstar(f) for basis Z, all levels."""
    roots = cc.g.pplus_roots()
    below = None  # the wedges of level n - 1
    for n in range(cc.top):
        wedges = unit_wedges(cc, n)
        for a, wa in enumerate(wedges):
            lhs = cc.delstars[n] @ wa
            rhs = -cc.levels[n].actions[("e", roots[a])]
            if below is not None:
                rhs = rhs - below[a] @ cc.delstars[n - 1]
            if lhs != rhs:
                return False
        below = wedges
    return True


def verify_differential_commutator(cc: CochainComplex) -> bool:
    """W.(del f) - del(W.f) = (n+1) sum_a eta_a ^ ([W, xi_a].f)."""
    g = cc.g
    roots = g.pplus_roots()
    dual = g.dual_bases()
    for n in range(cc.top):
        wedges = unit_wedges(cc, n)
        acts = cc.levels[n].actions
        dim, dim1 = cc.dim(n), cc.dim(n + 1)
        for lab in g.p_labels():
            w = g.grade_of(lab)
            if w < 1:
                continue
            lhs = cc.levels[n + 1].actions[lab] @ cc.dels[n] - cc.dels[n] @ acts[lab]
            terms = []
            for a, root in enumerate(roots):
                if g.grade_of(("e", root)) > w:
                    continue
                # [W, xi_a] / d_a acting on C^n
                act = SpMat.assemble(dim, dim, [
                    (0, 0, c / dual.d[a], acts[blab])
                    for blab, c in g.bracket_labels(lab, ("f", root)).items()
                ])
                terms.append((0, 0, n + 1, wedges[a] @ act))
            if lhs != SpMat.assemble(dim1, dim, terms):
                return False
    return True


def oracle_agrees(g: GradedLieAlgebra, lam_mod: Weight, columns) -> bool:
    """The diagram columns (per level, components with ``label`` and
    ``e_eigenvalue``) are the ones Kostant's theorem predicts."""
    expected = kostant_oracle(g, lam_mod)
    E = g.grading_element()
    rank = g.rs.rank
    if len(expected) != len(columns):
        return False
    for lvl, labels in enumerate(expected):
        got = sorted((c.label, c.e_eigenvalue) for c in columns[lvl])
        want = sorted(
            (l, -sum(E.get(("h", j), QZERO) * l[j] for j in range(rank)))
            for l in labels
        )
        if got != want:
            return False
    return True


def verify_splitter_projection(gs, chain) -> bool:
    """pi^{i+1}_i o L_i = p_i for each i."""
    for lm in chain.maps:
        foot = SpMat.identity(lm.source.base.dim, lm.source.dim)
        if gs.trunc(lm.i + 1, lm.i) @ lm.mat != foot:
            return False
    return True


def verify_splitter_defect(gs, chain) -> bool:
    """L_1 commutes with grade-one generators; for i >= 2 the defect of L_i
    equals box^{-1}(W.(box o j_i o (L_{i-1} o J^1(pi) - p_i)))."""
    g = gs.cc.g
    grade1 = [l for l in g.p_labels() if g.grade_of(l) == 1]
    for lm in chain.maps:
        i, jq = lm.i, lm.source
        qn = gs.quotient(i + 1)
        if i >= 2:
            qi = jq.base
            jpi = jet1_map_matrix(g, gs.trunc(i, i - 1))
            inner = chain.maps[i - 2].mat @ jpi - SpMat.identity(qi.dim, jq.dim)
            idx = list(range(qn.dim))
            box_qn = gs.box_on_e().submatrix(idx, idx)
            boxed = box_qn @ (SpMat.identity(qn.dim, qi.dim) @ inner)
        for lab in grade1:
            defect = lm.mat @ jq.actions[lab] - qn.actions[lab] @ lm.mat
            if i == 1:
                if not defect.is_zero():
                    return False
                continue
            lifted = gs.lift_top_block(i, qn.actions[lab] @ boxed)
            if lifted is None or defect != lifted:
                return False
    return True


def twisted_d_hom(cc: CochainComplex, n: int) -> PModMap:
    """The twisted-derivative homomorphism J^1(C^n) -> C^{n+1}, certified."""
    if not 0 <= n < cc.top:
        raise ValueError(f"twisted derivative needs 0 <= n < {cc.top}, got {n}")
    return certify_map(
        twisted_matrix(cc, n), jet1(cc.levels[n]), cc.levels[n + 1],
        "twisted derivative",
    )


def _left_annihilator(b: SpMat) -> SpMat:
    """Rows spanning {a : a @ b = 0}."""
    return b.transpose().kernel_basis().transpose()


@dataclass
class TildeJet:
    """The submodule of J^1(E/E^{i+1}) on which the splitter chain is
    natural."""

    i: int
    basis: SpMat = field(repr=False)
    module: PModule = field(repr=False)
    ambient: JetModule = field(repr=False)


def tilde_bases(gs, maps, top: int) -> list[SpMat]:
    """Bases of the tilde subspaces of J^1(E/E^{i+1}) for i = 0..top: full at
    i = 0, then the preimage of the previous one intersected with
    Ker(L_i o J^1(pi) - p)."""
    g = gs.cc.g
    d = len(g.pplus_roots())
    bases = [SpMat.identity((1 + d) * gs.quotient(1).dim)]
    for i in range(1, top + 1):
        qn = gs.quotient(i + 1)
        jpi = jet1_map_matrix(g, gs.trunc(i + 1, i))
        cond1 = _left_annihilator(bases[-1]) @ jpi
        cond2 = maps[i - 1].mat @ jpi - SpMat.identity(qn.dim, jpi.ncols)
        bases.append(SpMat.vstack([cond1, cond2]).kernel_basis())
    return bases


def tilde_jet_submodule(gs, i: int, maps=()) -> TildeJet:
    """The i-th tilde subspace of J^1(E/E^{i+1}) as a P-module."""
    basis = tilde_bases(gs, maps, i)[i]
    amb = jet1(gs.quotient(i + 1))
    acts = {}
    for lab, A in amb.actions.items():
        try:
            acts[lab] = basis.solve(A @ basis)
        except LinAlgError as exc:
            raise CertificationFailure(
                f"tilde subspace not invariant under {lab}"
            ) from exc
    e_grades, weights = [], []
    for k in range(basis.ncols):
        supp = [p for p in range(amb.dim) if basis.get(p, k)]
        gset = {amb.e_grades[p] for p in supp}
        wset = {amb.weights[p] for p in supp}
        if len(gset) != 1 or len(wset) != 1:
            raise CertificationFailure(f"tilde basis vector {k} is not homogeneous")
        e_grades.append(gset.pop())
        weights.append(wset.pop())
    mod = PModule(
        g=amb.g, dim=basis.ncols, e_grades=tuple(e_grades),
        actions=acts, weights=tuple(weights),
    )
    return TildeJet(i=i, basis=basis, module=mod, ambient=amb)


def _second_tilde(first: SpMat, jet: SemiHolonomicJet) -> SpMat:
    """Basis of the second tilde prolongation of E/E^i inside the direct-sum
    coordinates of jet = Jbar^2(E/E^i), from ``first``, the basis of the
    first one inside J^1(E/E^i)."""
    d = len(jet.V.g.pplus_roots())
    blocks = SpMat.block_diag([_left_annihilator(first)] * (1 + d))
    return (blocks @ jet.iota).kernel_basis()


def verify_tower_containments(gs, chain) -> bool:
    """J^1(L_i) o iota maps the second tilde space of E/E^i into the first
    tilde space of E/E^{i+1}, for 1 <= i <= r."""
    bases = tilde_bases(gs, chain.maps, gs.r)
    for i in range(1, gs.r + 1):
        jet = semiholonomic(gs.quotient(i), 2)
        t_src = _second_tilde(bases[i - 1], jet)
        m = prolong(chain.maps[i - 1].mat, jet)
        if not (_left_annihilator(bases[i]) @ (m @ t_src)).is_zero():
            return False
    return True
