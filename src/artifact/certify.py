"""Certificates: the identities the BGG pipeline relies on, checked exactly.

`bggcore` computes; this module checks: the map certificate the pipeline
raises on (`certify_map`), the identity battery `verify` reports, and, for
the tests, the twisted derivative and the tilde prolongations on which the
splitter chain is natural. Pipeline objects (a generated submodule ``gs``,
a splitter ``chain``) come in as arguments; nothing here imports `bggcore`.

Every check that compares products is one signed ``SpMat.assemble`` of
product blocks, tested with ``is_zero``: the two sides are never built
apart and subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gradedla import GradedLieAlgebra
from .hodge import CochainComplex, kostant_oracle, twisted_matrix
from .jetcalc import (
    JetModule,
    PModMap,
    SemiHolonomicJet,
    ShapeMismatch,
    check_equivariance,
    jet1,
    jet1_left_action,
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


def certify_from_left(dt: SpMat, W: PModule, phi: list[int] | None, ncols: int,
                      target: PModule) -> SpMat:
    """The BGG operator D = Dt o iota (Dt with its columns merged by phi;
    D = Dt when phi is None), certified as a P-module map Jbar -> target, for
    Dt defined on J^1(W) and Jbar the module phi embeds in J^1(W) (J^1(W)
    itself when phi is None). Returns D, or raises CertificationFailure as
    `certify_map` does.

    For each label, A'_Z D must equal Dt A^{J^1}_Z merged by phi: by
    equalizer condition (4) that is D A_Z, and (4) holds because Jbar is the
    equalizer of two P-maps certified with W (the `jetcalc` module
    docstring). The action of Jbar is never built; phi is certified by
    `jetcalc.equalizer_index_maps`."""
    if dt.nrows != target.dim:
        raise ShapeMismatch(f"map has {dt.nrows} rows, expected {target.dim}")

    def merge(m: SpMat) -> SpMat:
        return m if phi is None else m.merge_columns(phi, ncols)

    mat = merge(dt)
    residuals = [
        lab for lab, right in jet1_left_action(dt, W).items()
        if lab in target.actions and not SpMat.assemble(dt.nrows, ncols, [
            (0, 0, 1, (target.actions[lab], mat)), (0, 0, -1, merge(right)),
        ]).is_zero()
    ]
    if residuals:
        raise CertificationFailure(f"operator residuals on {sorted(residuals)}")
    return mat


def verify_cochain_identities(cc: CochainComplex) -> dict[str, bool]:
    out = {"d_squared_zero": True, "codifferential_squared_zero": True,
           "adjointness": True}
    for n in range(cc.top):
        if n + 1 < cc.top and not (cc.dels[n + 1] @ cc.dels[n]).is_zero():
            out["d_squared_zero"] = False
        if n + 1 < cc.top and not (cc.delstars[n] @ cc.delstars[n + 1]).is_zero():
            out["codifferential_squared_zero"] = False
        # dstar^T G_n = G_{n+1} d
        if not SpMat.assemble(cc.dim(n + 1), cc.dim(n), [
            (0, 0, 1, (cc.delstars[n].transpose(), cc.inner[n])),
            (0, 0, -1, (cc.inner[n + 1], cc.dels[n])),
        ]).is_zero():
            out["adjointness"] = False
    return out


def verify_codifferential_leibniz(cc: CochainComplex) -> bool:
    """dstar(Z ^ f) = -Z.f - Z ^ dstar(f) for basis Z, all levels."""
    roots = cc.g.pplus_roots()
    for n in range(cc.top):
        dim = cc.dim(n)
        for a, wa in enumerate(cc.unit_wedges(n)):
            blocks = [
                (0, 0, 1, (cc.delstars[n], wa)),
                (0, 0, 1, cc.levels[n].actions[("e", roots[a])]),
            ]
            if n >= 1:
                blocks.append((0, 0, 1, (cc.unit_wedges(n - 1)[a], cc.delstars[n - 1])))
            if not SpMat.assemble(dim, dim, blocks).is_zero():
                return False
    return True


def verify_differential_commutator(cc: CochainComplex) -> bool:
    """W.(del f) - del(W.f) = (n+1) sum_a eta_a ^ ([W, xi_a].f), checked as
    one signed sum of products for each level and label; the action of
    [W, xi_a] is never assembled."""
    g = cc.g
    for n in range(cc.top):
        wedges = cc.unit_wedges(n)
        acts = cc.levels[n].actions
        d = cc.dels[n]
        for lab in g.p_labels():
            if g.grade_of(lab) < 1:
                continue
            blocks = [(0, 0, 1, (cc.levels[n + 1].actions[lab], d)), (0, 0, -1, (d, acts[lab]))]
            blocks.extend(
                (0, 0, -(n + 1) * c, (wedges[a], acts[blab]))
                for a, blab, c in g.xi_brackets(lab)
            )
            if not SpMat.assemble(cc.dim(n + 1), cc.dim(n), blocks).is_zero():
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
        trunc = gs.trunc(lm.i + 1, lm.i)
        foot = SpMat.identity(lm.source.base.dim, lm.source.dim)
        if not SpMat.assemble(foot.nrows, foot.ncols, [
            (0, 0, 1, (trunc, lm.mat)), (0, 0, -1, foot),
        ]).is_zero():
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
            inner = SpMat.assemble(qi.dim, jq.dim, [
                (0, 0, 1, (chain.maps[i - 2].mat, jpi)),
                (0, 0, -1, SpMat.identity(qi.dim, jq.dim)),
            ])
            idx = list(range(qn.dim))
            box_qn = gs.box_on_e().submatrix(idx, idx)
            boxed = box_qn @ inner.place_rows(list(range(qi.dim)), qn.dim)
        for lab in grade1:
            # the defect L_i A_Z - A'_Z L_i, less its expected value
            blocks = [(0, 0, 1, (lm.mat, jq.actions[lab])), (0, 0, -1, (qn.actions[lab], lm.mat))]
            if i >= 2:
                lifted = gs.lift_top_block(i, qn.actions[lab] @ boxed)
                if lifted is None:
                    return False
                blocks.append((0, 0, -1, lifted))
            if not SpMat.assemble(qn.dim, jq.dim, blocks).is_zero():
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


def tilde_jet_submodule(gs, i: int, bases: list[SpMat]) -> TildeJet:
    """The i-th tilde subspace of J^1(E/E^{i+1}) as a P-module, from
    ``bases``, the list `tilde_bases` returns for a top >= i."""
    basis = bases[i]
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


def verify_tower_containments(gs, chain, bases: list[SpMat]) -> bool:
    """J^1(L_i) o iota maps the second tilde space of E/E^i into the first
    tilde space of E/E^{i+1}, for 1 <= i <= r, with ``bases`` =
    ``tilde_bases(gs, chain.maps, gs.r)``."""
    for i in range(1, gs.r + 1):
        jet = semiholonomic(gs.quotient(i), 2)
        t_src = _second_tilde(bases[i - 1], jet)
        m = prolong(chain.maps[i - 1].mat, jet)
        if not (_left_annihilator(bases[i]) @ (m @ t_src)).is_zero():
            return False
    return True
