"""Generated submodules, splitting operators, and BGG diagrams.

For a harmonic component E_{i0} inside C^n = Lambda^n p_+ (x) V, the
p_+-closure E carries the filtration E^i by E-eigenvalue offsets. The maps

  L_i(e, psi) = j_i(e) - (n+1) box^{-1} dstar((Alt psi)_i),

composed through semi-holonomic prolongations, give the splitting operator
L: Jbar^r(E/E^1) -> E, and

  D = pi_H o d_V o J^1(L),   d_V(f0, Z (x) f1) = del(f0) + (n+1) Z ^ f1,

is the level-to-level operator whose nonzero component blocks are the arrows
of the diagram. All compositions are exact; every splitter and operator is
certified to commute with the p-action before it is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gradedla import GradedLieAlgebra, Label
from .hodge import (
    Cohomology,
    CochainComplex,
    build_cochain_complex,
    cohomology_module,
    kostant_oracle,
    laplacian,
    wedge_insert_matrix,
)
from .jetcalc import (
    JetModule,
    PModMap,
    SemiHolonomicJet,
    chain_embedding,
    check_equivariance,
    jbar_of_map,
    jet1,
    jet1_map_matrix,
    semiholonomic,
)
from .linalg import LinAlgError, Q, QONE, QZERO, SpMat, qstr
from .repmod import (
    DimensionOverBudget,
    IrrepLabel,
    PModule,
    build_irrep,
    decompose_completely_reducible,
    restrict_to_parabolic,
)
from .rootspace import Weight, dominant_representative


class SingularLaplacianBlock(Exception):
    """The Laplacian failed to be invertible on a filtration block."""


class CertificationFailure(Exception):
    """A map that must be a P-homomorphism has nonzero residuals."""


class NonAdjacentLevels(Exception):
    """Operator order requested between non-adjacent cohomology levels."""


def _left_annihilator(b: SpMat) -> SpMat:
    """Rows spanning {a : a @ b = 0}."""
    return b.transpose().kernel_basis().transpose()


def _as_int(x) -> int:
    n = int(x)
    assert n == x
    return n


@dataclass
class GeneratedSubmodule:
    """The P-submodule E generated by one harmonic component, with its
    eigenvalue filtration in degree-adapted coordinates."""

    cc: CochainComplex
    n: int
    comp: IrrepLabel
    i0: object
    basis: SpMat = field(repr=False)       # C^n coords x dim E
    offsets: tuple[int, ...] = ()          # per column: eigenvalue - i0
    r: int = 0
    module: PModule = field(default=None, repr=False)
    _quotients: dict = field(default_factory=dict, repr=False)
    _box: SpMat | None = field(default=None, repr=False)
    _boxinv: dict = field(default_factory=dict, repr=False)

    def block_columns(self, j: int) -> list[int]:
        return [k for k, off in enumerate(self.offsets) if off == j]

    def quotient(self, i: int) -> PModule:
        """E/E^i in degree-adapted coordinates (columns of offset < i)."""
        i = min(i, self.r + 1)
        if i in self._quotients:
            return self._quotients[i]
        cut = sum(1 for off in self.offsets if off < i)
        idx = list(range(cut))
        mod = PModule(
            g=self.module.g,
            dim=cut,
            e_grades=self.module.e_grades[:cut],
            actions={l: A.submatrix(idx, idx) for l, A in self.module.actions.items()},
            weights=self.module.weights[:cut],
        )
        self._quotients[i] = mod
        return mod

    def trunc(self, j: int, i: int) -> SpMat:
        """pi^j_i: E/E^j -> E/E^i for i <= j."""
        assert i <= j
        out = SpMat(self.quotient(i).dim, self.quotient(j).dim)
        for k in range(out.nrows):
            out.set(k, k, 1)
        return out

    def box_on_e(self) -> SpMat:
        """The Laplacian restricted to E, in E coordinates."""
        if self._box is None:
            box = laplacian(self.cc, self.n)
            self._box = self.basis.solve(box @ self.basis)
        return self._box

    def box_inverse(self, i: int) -> SpMat:
        """Inverse of the Laplacian block on E_{i0+i}; i >= 1."""
        if i in self._boxinv:
            return self._boxinv[i]
        cols = self.block_columns(i)
        blk = self.box_on_e().submatrix(cols, cols)
        try:
            inv = blk.solve(SpMat.identity(len(cols)))
        except LinAlgError as exc:
            raise SingularLaplacianBlock(
                f"Laplacian not invertible on block {i} (offset from {qstr(self.i0)})"
            ) from exc
        self._boxinv[i] = inv
        return inv


def generate_submodule(cc: CochainComplex, coh: Cohomology, comp: IrrepLabel) -> GeneratedSubmodule:
    """Close the harmonic component under the p_+ action, layering the basis
    by E-eigenvalue offset."""
    assert comp.multiplicity == 1
    g = cc.g
    level = cc.levels[coh.n]
    n = coh.n
    emb = coh.embedding @ comp.embedding
    i0 = comp.e_eigenvalue
    raising = [l for l in g.p_labels() if g.grade_of(l) >= 1]
    from .linalg import EchelonSpan

    span = EchelonSpan(level.dim)
    cols: list[tuple[int, dict]] = []
    pending: dict[int, list[dict]] = {0: [emb.col_dict(k) for k in range(emb.ncols)]}
    while pending:
        j = min(pending)
        for vec in pending.pop(j):
            red = span.reduce(vec)
            if not red:
                continue
            span.add(dict(red))
            cols.append((j, red))
            vm = SpMat(level.dim, 1, {i: {0: v} for i, v in red.items()})
            for lab in raising:
                img = level.actions[lab] @ vm
                if img.is_zero():
                    continue
                pending.setdefault(j + g.grade_of(lab), []).append(img.col_dict(0))
    m = len(cols)
    basis = SpMat(level.dim, m)
    for k, (_, vec) in enumerate(cols):
        for i, v in vec.items():
            basis.rows.setdefault(i, {})[k] = v
    offsets = tuple(j for j, _ in cols)
    r = max(offsets)
    if n >= 1:
        assert (cc.delstars[n - 1] @ basis).is_zero()  # E inside ker dstar
    acts = {}
    for lab in g.p_labels():
        acts[lab] = basis.solve(level.actions[lab] @ basis)
    weights = []
    for k in range(m):
        supp = [i for i in range(level.dim) if basis.get(i, k)]
        ws = {level.weights[i] for i in supp}
        assert len(ws) == 1
        weights.append(ws.pop())
        assert all(level.e_grades[i] == i0 + offsets[k] for i in supp)
    module = PModule(
        g=g, dim=m,
        e_grades=tuple(i0 + Q(off) for off in offsets),
        actions=acts, weights=tuple(weights),
    )
    return GeneratedSubmodule(
        cc=cc, n=n, comp=comp, i0=i0, basis=basis,
        offsets=offsets, r=r, module=module,
    )


@dataclass
class LiMap:
    """L_i: J^1(E/E^i) -> E/E^{i+1}."""

    i: int
    source: JetModule = field(repr=False)
    target: PModule = field(repr=False)
    mat: SpMat = field(repr=False)


def build_Li(gs: GeneratedSubmodule, i: int) -> LiMap:
    assert 1 <= i <= gs.r
    cc, n, g = gs.cc, gs.n, gs.cc.g
    roots = g.pplus_roots()
    d = len(roots)
    src_q = gs.quotient(i)
    tgt = gs.quotient(i + 1)
    jmod = jet1(src_q)
    mat = SpMat(tgt.dim, (1 + d) * src_q.dim)
    for k in range(src_q.dim):
        mat.set(k, k, 1)
    topcols = gs.block_columns(i)
    tstart = src_q.dim
    minv = gs.box_inverse(i)
    # batch all slot corrections into one solve against the E basis
    rhs_cols: list[tuple[int, int]] = []
    pieces: list[SpMat] = []
    for a in range(d):
        ga = g.grade_of(("e", roots[a]))
        wa = wedge_insert_matrix(cc, n, {a: QONE})
        dswa = cc.delstars[n] @ wa
        for b in range(src_q.dim):
            if gs.offsets[b] + ga != i:
                continue
            rhs_cols.append((a, b))
            pieces.append(dswa @ gs.basis.column_vec(b))
    if rhs_cols:
        rhs = SpMat.hstack(pieces)
        x = gs.basis.solve(rhs)  # consistent: dstar of E-wedges stays in E
        for p in range(x.nrows):
            if p not in topcols and x.rows.get(p):
                raise AssertionError("correction escaped the top block")
        sub = x.submatrix(topcols, list(range(x.ncols)))
        y = (minv @ sub).scale(-(Q(n) + 1))
        for c, (a, b) in enumerate(rhs_cols):
            for k in range(len(topcols)):
                v = y.get(k, c)
                if v:
                    mat.set(tstart + k, (1 + a) * src_q.dim + b, v)
    return LiMap(i=i, source=jmod, target=tgt, mat=mat)


@dataclass
class SplitterChain:
    """L_1..L_r and their semi-holonomic composite L: Jbar^r(E/E^1) -> E.

    ``jet`` is the Jbar^r(E/E^1) the composite is defined on (None when
    r == 0); the operator extends it to Jbar^{r+1}."""

    gs: GeneratedSubmodule
    maps: tuple[LiMap, ...]
    composite: SpMat = field(repr=False)
    domain: PModule = field(repr=False)
    certificate: PModMap = field(repr=False)
    jet: SemiHolonomicJet | None = field(default=None, repr=False)


def compose_splitter(gs: GeneratedSubmodule, max_jet_dim: int = 20000) -> SplitterChain:
    g = gs.cc.g
    r = gs.r
    q1 = gs.quotient(1)
    maps = tuple(build_Li(gs, i) for i in range(1, r + 1))
    jet = None
    if r == 0:
        composite = SpMat.identity(gs.module.dim)
        domain = q1
    else:
        composite = None
        for j in range(1, r + 1):
            k = r - j
            stage = jbar_of_map(g, maps[j - 1].mat, k) @ chain_embedding(
                g, gs.quotient(j).dim, k
            )
            composite = stage if composite is None else stage @ composite
        jet = semiholonomic(q1, r, max_dim=max_jet_dim)
        domain = jet.module
    cert = check_equivariance(composite, domain, gs.module)
    if not cert.certified:
        raise CertificationFailure(
            f"splitter residuals on {sorted(cert.residuals)}"
        )
    # splitting property: the i0-block of L is the footpoint projection
    for k in range(q1.dim):
        row = composite.rows.get(k, {})
        if row != {k: QONE}:
            raise CertificationFailure("splitter does not split the projection")
    for k in range(q1.dim, gs.module.dim):
        if gs.offsets[k] == 0:
            raise AssertionError("degree-adapted basis out of order")
    return SplitterChain(
        gs=gs, maps=maps, composite=composite, domain=domain, certificate=cert,
        jet=jet,
    )


def _twisted_matrix(cc: CochainComplex, n: int) -> SpMat:
    """(f0, Z (x) f1) -> del f0 + (n+1) Z ^ f1 on jet coordinates of C^n."""
    d = len(cc.g.pplus_roots())
    blocks = [cc.dels[n]]
    for a in range(d):
        blocks.append(wedge_insert_matrix(cc, n, {a: QONE}).scale(Q(n) + 1))
    return SpMat.hstack(blocks)


def twisted_d_hom(cc: CochainComplex, n: int) -> PModMap:
    """The twisted-derivative homomorphism J^1(C^n) -> C^{n+1}, certified."""
    assert 0 <= n < cc.top
    mat = _twisted_matrix(cc, n)
    pm = check_equivariance(mat, jet1(cc.levels[n]), cc.levels[n + 1])
    if not pm.certified:
        raise CertificationFailure(
            f"twisted derivative residuals on {sorted(pm.residuals)}"
        )
    return pm


@dataclass
class TildeJet:
    """The submodule of J^1(E/E^{i+1}) on which the splitter chain is
    natural."""

    i: int
    basis: SpMat = field(repr=False)
    module: PModule = field(repr=False)
    ambient: JetModule = field(repr=False)


def tilde_jet_submodule(gs: GeneratedSubmodule, i: int, maps=()) -> TildeJet:
    """Inductive subspaces of J^1(E/E^{i+1}): full at i = 0, then the
    preimage of the previous one intersected with Ker(L_i o J^1(pi) - p)."""
    g = gs.cc.g
    d = len(g.pplus_roots())
    qn = gs.quotient(i + 1)
    amb = jet1(qn)
    if i == 0:
        basis = SpMat.identity(amb.dim)
    else:
        prev = tilde_jet_submodule(gs, i - 1, maps)
        jpi = jet1_map_matrix(g, gs.trunc(i + 1, i))
        cond1 = _left_annihilator(prev.basis) @ jpi
        foot = SpMat(qn.dim, amb.dim)
        for k in range(qn.dim):
            foot.set(k, k, 1)
        cond2 = maps[i - 1].mat @ jpi - foot
        basis = SpMat.vstack([cond1, cond2]).kernel_basis()
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
        assert len(gset) == 1 and len(wset) == 1
        e_grades.append(gset.pop())
        weights.append(wset.pop())
    mod = PModule(
        g=g, dim=basis.ncols, e_grades=tuple(e_grades),
        actions=acts, weights=tuple(weights),
    )
    return TildeJet(i=i, basis=basis, module=mod, ambient=amb)


def tilde_tower(gs: GeneratedSubmodule, maps, i: int, k: int,
                max_jet_dim: int = 20000) -> SpMat:
    """Basis of the k-th tilde prolongation of E/E^i inside the direct-sum
    coordinates of Jbar^k(E/E^i)."""
    assert k >= 1 and i >= 1
    if k == 1:
        return tilde_jet_submodule(gs, i - 1, maps).basis
    g = gs.cc.g
    d = len(g.pplus_roots())
    prev = tilde_tower(gs, maps, i, k - 1, max_jet_dim)
    sh = semiholonomic(gs.quotient(i), k, max_dim=max_jet_dim)
    ann = _left_annihilator(prev)
    blocks = SpMat.block_diag([ann] * (1 + d))
    return (blocks @ sh.iota).kernel_basis()


def verify_tower_containments(gs: GeneratedSubmodule, chain: SplitterChain,
                              kmax: int = 1, max_jet_dim: int = 20000) -> bool:
    """Jbar^k(L_i) maps the (k+1)-th tilde space of E/E^i into the k-th
    tilde space of E/E^{i+1}, for 1 <= i <= r and 1 <= k <= kmax."""
    g = gs.cc.g
    for i in range(1, gs.r + 1):
        for k in range(1, kmax + 1):
            t_src = tilde_tower(gs, chain.maps, i, k + 1, max_jet_dim)
            t_tgt = tilde_tower(gs, chain.maps, i + 1, k, max_jet_dim)
            m = jbar_of_map(g, chain.maps[i - 1].mat, k) @ chain_embedding(
                g, gs.quotient(i).dim, k
            )
            if not (_left_annihilator(t_tgt) @ (m @ t_src)).is_zero():
                return False
    return True


@dataclass
class BGGArrow:
    level: int
    source: int
    target: int
    order: int
    block: SpMat = field(repr=False)


@dataclass
class BGGOperator:
    n: int
    source: int
    domain: PModule = field(repr=False)
    matrix: SpMat = field(repr=False)      # harmonic coords of H^{n+1}
    values: SpMat = field(repr=False)      # composite into C^{n+1}
    in_kernel: bool = True
    arrows: tuple[BGGArrow, ...] = ()


def bgg_operator(gs: GeneratedSubmodule, chain: SplitterChain,
                 coh_next: Cohomology, comps_next: list[IrrepLabel],
                 source_index: int = 0,
                 max_jet_dim: int = 20000) -> BGGOperator:
    cc, n, g = gs.cc, gs.n, gs.cc.g
    sh = semiholonomic(gs.quotient(1), gs.r + 1, max_dim=max_jet_dim, below=chain.jet)
    jl = jet1_map_matrix(g, gs.basis @ chain.composite)
    if sh.phi is not None:
        jl = jl.merge_columns(sh.phi, sh.module.dim)  # J^1(L) o iota
    values = _twisted_matrix(cc, n) @ jl
    in_kernel = (cc.delstars[n] @ values).is_zero()
    split = coh_next.split
    x = split.full_basis.solve(values)
    off = split.im_del.ncols
    h = split.ker_box.ncols
    dh = x.submatrix(list(range(off, off + h)), list(range(x.ncols)))
    cert = check_equivariance(dh, sh.module, coh_next.module)
    if not cert.certified:
        raise CertificationFailure(
            f"operator residuals on {sorted(cert.residuals)}"
        )
    arrows = []
    if comps_next:
        stacked = SpMat.hstack([c.embedding for c in comps_next])
        xc = stacked.solve(dh)
        row0 = 0
        for t, compt in enumerate(comps_next):
            w = compt.dim * compt.multiplicity
            blk = xc.submatrix(list(range(row0, row0 + w)), list(range(xc.ncols)))
            row0 += w
            if blk.is_zero():
                continue
            order = _as_int(compt.e_eigenvalue - gs.i0)
            assert order >= 1
            arrows.append(BGGArrow(
                level=n, source=source_index, target=t, order=order, block=blk,
            ))
    return BGGOperator(
        n=n, source=source_index, domain=sh.module, matrix=dh,
        values=values, in_kernel=in_kernel, arrows=tuple(arrows),
    )


def operator_order(level_from: int, comp_from: IrrepLabel,
                   level_to: int, comp_to: IrrepLabel) -> int:
    if level_to != level_from + 1:
        raise NonAdjacentLevels(f"levels {level_from} -> {level_to}")
    return _as_int(comp_to.e_eigenvalue - comp_from.e_eigenvalue)


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
    g = cc.g
    d = len(g.pplus_roots())
    roots = g.pplus_roots()
    for n in range(cc.top):
        for a in range(d):
            wa = wedge_insert_matrix(cc, n, {a: QONE})
            lhs = cc.delstars[n] @ wa
            rhs = -cc.levels[n].actions[("e", roots[a])]
            if n >= 1:
                rhs = rhs - wedge_insert_matrix(cc, n - 1, {a: QONE}) @ cc.delstars[n - 1]
            if lhs != rhs:
                return False
    return True


def verify_differential_commutator(cc: CochainComplex) -> bool:
    """W.(del f) - del(W.f) = (n+1) sum_a eta_a ^ ([W, xi_a].f)."""
    g = cc.g
    roots = g.pplus_roots()
    dual = g.dual_bases()
    for n in range(cc.top):
        for lab in g.p_labels():
            w = g.grade_of(lab)
            if w < 1:
                continue
            lhs = cc.levels[n + 1].actions[lab] @ cc.dels[n] - cc.dels[n] @ cc.levels[n].actions[lab]
            rhs = SpMat(cc.dim(n + 1), cc.dim(n))
            for a, root in enumerate(roots):
                if g.grade_of(("e", root)) > w:
                    continue
                act = SpMat(cc.dim(n), cc.dim(n))
                for blab, c in g.bracket_labels(lab, ("f", root)).items():
                    act = act + cc.levels[n].actions[blab].scale(c)
                act = act.scale(QONE / dual.d[a])
                rhs = rhs + wedge_insert_matrix(cc, n, {a: QONE}) @ act
            if lhs != (rhs.scale(Q(n) + 1)):
                return False
    return True


def verify_splitter_projection(gs: GeneratedSubmodule, chain: SplitterChain) -> bool:
    """pi^{i+1}_i o L_i = p_i for each i; previously asserted splitting rows."""
    d = len(gs.cc.g.pplus_roots())
    for lm in chain.maps:
        src_dim = lm.source.base.dim
        foot = SpMat(src_dim, (1 + d) * src_dim)
        for k in range(src_dim):
            foot.set(k, k, 1)
        if gs.trunc(lm.i + 1, lm.i) @ lm.mat != foot:
            return False
    return True


def verify_splitter_defect(gs: GeneratedSubmodule, chain: SplitterChain) -> bool:
    """L_1 commutes with grade-one generators; for i >= 2 the defect of L_i
    equals box^{-1}(W.(box o j_i o (L_{i-1} o J^1(pi) - p_i)))."""
    g = gs.cc.g
    d = len(g.pplus_roots())
    grade1 = [l for l in g.p_labels() if g.grade_of(l) == 1]
    for lm in chain.maps:
        i = lm.i
        qi = gs.quotient(i)
        qn = gs.quotient(i + 1)
        jq = jet1(qi)
        for lab in grade1:
            defect = lm.mat @ jq.actions[lab] - qn.actions[lab] @ lm.mat
            if i == 1:
                if not defect.is_zero():
                    return False
                continue
            prev = chain.maps[i - 2]
            jpi = jet1_map_matrix(g, gs.trunc(i, i - 1))
            foot = SpMat(qi.dim, (1 + d) * qi.dim)
            for k in range(qi.dim):
                foot.set(k, k, 1)
            inner = prev.mat @ jpi - foot
            ji = SpMat(qn.dim, qi.dim)
            for k in range(qi.dim):
                ji.set(k, k, 1)
            cut = qn.dim
            idx = list(range(cut))
            box_qn = gs.box_on_e().submatrix(idx, idx)
            rhs = qn.actions[lab] @ (box_qn @ (ji @ inner))
            topcols = [k for k in range(qn.dim) if gs.offsets[k] == i]
            for p in range(qn.dim):
                if p not in topcols and rhs.rows.get(p):
                    return False
            sub = rhs.submatrix(topcols, list(range(rhs.ncols)))
            lifted = SpMat(qn.dim, rhs.ncols)
            inv = gs.box_inverse(i) @ sub
            for kk, p in enumerate(topcols):
                for c, v in inv.rows.get(kk, {}).items():
                    lifted.set(p, c, v)
            if defect != lifted:
                return False
    return True


@dataclass
class DiagramComponent:
    label: Weight
    e_eigenvalue: object
    dim: int


@dataclass
class BGGDiagram:
    algebra: str
    sigma: tuple[int, ...]
    weight: Weight
    columns: list[list[DiagramComponent]]
    arrows: list[BGGArrow]
    partial: list[tuple[int, int]]
    verify: dict[str, bool]


def _oracle_agrees(g: GradedLieAlgebra, lam_mod: Weight,
                   columns: list[list[DiagramComponent]]) -> bool:
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


def build_bgg_diagram(g: GradedLieAlgebra, lam: Weight,
                      max_module_dim: int = 500,
                      max_jet_dim: int = 20000,
                      with_arrows: bool = True) -> BGGDiagram:
    """Full pipeline: dual-convention module, cohomology columns, splitting
    operators, arrows. The input weight labels the zeroth column; the module
    acted on is the irreducible with highest weight dominant_rep(-lam)."""
    rs = g.rs
    if any(x < 0 for x in lam):
        raise ValueError("weight must be dominant integral")
    lam_mod = dominant_representative(rs, tuple(-x for x in lam))
    V = restrict_to_parabolic(build_irrep(rs, lam_mod, max_dim=max_module_dim), g)
    cc = build_cochain_complex(g, V)
    cohs = [cohomology_module(cc, n) for n in range(cc.top + 1)]
    comps = [decompose_completely_reducible(c.module) for c in cohs]
    columns = [
        [DiagramComponent(label=c.label, e_eigenvalue=c.e_eigenvalue, dim=c.dim)
         for c in comps[n]]
        for n in range(cc.top + 1)
    ]
    verify = verify_cochain_identities(cc)
    verify["codifferential_leibniz"] = verify_codifferential_leibniz(cc)
    verify["differential_commutator"] = verify_differential_commutator(cc)
    verify["oracle_agreement"] = _oracle_agrees(g, lam_mod, columns)
    arrows: list[BGGArrow] = []
    partial: list[tuple[int, int]] = []
    if with_arrows:
        verify["splitter_projection"] = True
        verify["splitter_defect"] = True
        verify["splitter_values_kernel"] = True
        for n in range(cc.top):
            for s, comp in enumerate(comps[n]):
                gs = generate_submodule(cc, cohs[n], comp)
                jet_dim = sum(
                    len(g.pplus_roots()) ** j * gs.quotient(1).dim
                    for j in range(gs.r + 2)
                )
                if jet_dim > max_jet_dim:
                    partial.append((n, s))
                    continue
                chain = compose_splitter(gs, max_jet_dim=max_jet_dim)
                op = bgg_operator(
                    gs, chain, cohs[n + 1], comps[n + 1],
                    source_index=s, max_jet_dim=max_jet_dim,
                )
                verify["splitter_projection"] &= verify_splitter_projection(gs, chain)
                verify["splitter_defect"] &= verify_splitter_defect(gs, chain)
                verify["splitter_values_kernel"] &= op.in_kernel
                arrows.extend(op.arrows)
    return BGGDiagram(
        algebra=rs.label,
        sigma=tuple(sorted(g.par.sigma)),
        weight=tuple(lam),
        columns=columns,
        arrows=arrows,
        partial=partial,
        verify=verify,
    )
