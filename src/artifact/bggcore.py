"""Generated submodules, splitting operators, and BGG diagrams.

For a harmonic component E_{i0} inside C^n = Lambda^n p_+ (x) V, the
p_+-closure E carries the filtration E^i by E-eigenvalue offsets. The maps

  L_i(e, psi) = j_i(e) - (n+1) box^{-1} dstar((Alt psi)_i),

composed through semi-holonomic prolongations, give the splitting operator
L = L^(r): Jbar^r(E/E^1) -> E by the recursion

  L^(1) = L_1,   L^(k) = L_k o J^1(L^(k-1)) o iota   (iota: Jbar^k in
                                                       J^1(Jbar^{k-1})),

and one more step of it,

  D = pi_H o d_V o J^1(L) o iota,   d_V(f0, Z (x) f1) = del(f0) + (n+1) Z ^ f1,

is the level-to-level operator whose nonzero component blocks are the arrows
of the diagram. Each step is `jetcalc.prolong`. All compositions are exact.

The operator is built and certified on J^1(W), W = Jbar^r(E/E^1) the domain
of L, whose action the splitter already has: Dt = pi_H o d_V o J^1(L) on
J^1(W), D = Dt o iota (Dt with its columns merged by phi of Jbar^{r+1}), and
D o A_Z = Dt o A^{J^1}_Z o iota by equalizer condition (4) for Jbar^{r+1}.
That condition holds because Jbar^{r+1} is the equalizer of two P-maps, both
certified at level r, and conditions (1)-(3) on phi are checked on every
call; so checking A'_Z o D against Dt o A^{J^1}_Z merged by phi
(`certify.certify_from_left`) certifies D, and the action of Jbar^{r+1} is
never built.

This module computes; `certify` checks. Every splitter and operator is
certified there to commute with the p-action before it is used, and the
identity battery `verify` reports runs there too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certify import (
    CertificationFailure,
    certify_from_left,
    certify_map,
    oracle_agrees,
    verify_cochain_identities,
    verify_codifferential_leibniz,
    verify_differential_commutator,
    verify_splitter_defect,
    verify_splitter_projection,
)
from .gradedla import GradedLieAlgebra
from .hodge import (
    Cohomology,
    CochainComplex,
    build_cochain_complex,
    cohomology_module,
    laplacian,
    twisted_matrix,
)
from .jetcalc import (
    MAX_JET_DIM,
    JetModule,
    PModMap,
    SemiHolonomicJet,
    check_jet_budget,
    equalizer_index_maps,
    jbar_dim,
    jet1,
    jet1_map_matrix,
    prolong,
    semiholonomic,
)
from .linalg import EchelonSpan, LinAlgError, Q, SpMat, qstr
from .repmod import (
    MAX_MODULE_DIM,
    IrrepLabel,
    PModule,
    build_irrep,
    decompose_completely_reducible,
    restrict_to_parabolic,
)
from .rootspace import Weight, dominant_representative


class SingularLaplacianBlock(Exception):
    """The Laplacian failed to be invertible on a filtration block."""


class NonAdjacentLevels(Exception):
    """Operator order requested between non-adjacent cohomology levels."""


def _as_int(x) -> int:
    n = int(x)
    if n != x:
        raise CertificationFailure(f"expected an integer, got {qstr(x)}")
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
        if i > j:
            raise ValueError(f"no truncation E/E^{j} -> E/E^{i}")
        return SpMat.identity(self.quotient(i).dim, self.quotient(j).dim)

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

    def lift_top_block(self, i: int, x: SpMat) -> SpMat | None:
        """box^{-1} on the block-i rows of x (rows in E coordinates), as rows
        of E/E^{i+1}; None when x has a nonzero row outside block i."""
        top = self.block_columns(i)
        block = x.gather_rows(top)
        if block.place_rows(top, x.nrows) != x:
            return None
        return (self.box_inverse(i) @ block).place_rows(top, self.quotient(i + 1).dim)


def generate_submodule(cc: CochainComplex, coh: Cohomology, comp: IrrepLabel) -> GeneratedSubmodule:
    """Close the harmonic component under the p_+ action, layering the basis
    by E-eigenvalue offset."""
    if comp.multiplicity != 1:
        raise CertificationFailure(
            f"component {comp.label} has multiplicity {comp.multiplicity}"
        )
    g = cc.g
    level = cc.levels[coh.n]
    n = coh.n
    emb = coh.embedding @ comp.embedding
    i0 = comp.e_eigenvalue
    raising = [l for l in g.p_labels() if g.grade_of(l) >= 1]
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
            vm = SpMat.from_columns(level.dim, [red])
            for lab in raising:
                img = level.actions[lab] @ vm
                if img.is_zero():
                    continue
                pending.setdefault(j + g.grade_of(lab), []).append(img.col_dict(0))
    m = len(cols)
    basis = SpMat.from_columns(level.dim, [vec for _, vec in cols])
    offsets = tuple(j for j, _ in cols)
    if any(a > b for a, b in zip(offsets, offsets[1:])):
        raise CertificationFailure("degree-adapted basis out of order")
    r = max(offsets)
    if n >= 1 and not (cc.delstars[n - 1] @ basis).is_zero():
        raise CertificationFailure(f"E is not inside ker dstar on C^{n}")
    acts = {}
    for lab in g.p_labels():
        acts[lab] = basis.solve(level.actions[lab] @ basis)
    weights = []
    for k in range(m):
        supp = [i for i in range(level.dim) if basis.get(i, k)]
        ws = {level.weights[i] for i in supp}
        if len(ws) != 1:
            raise CertificationFailure(f"E basis vector {k} is not a weight vector")
        weights.append(ws.pop())
        if any(level.e_grades[i] != i0 + offsets[k] for i in supp):
            raise CertificationFailure(f"E basis vector {k} is off its E-grade")
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
    if not 1 <= i <= gs.r:
        raise ValueError(f"L_i needs 1 <= i <= {gs.r}, got {i}")
    cc, n, g = gs.cc, gs.n, gs.cc.g
    roots = g.pplus_roots()
    src_q = gs.quotient(i)
    tgt = gs.quotient(i + 1)
    jmod = jet1(src_q)
    # the footpoint projection; the rows of block i take the corrections
    blocks = [(0, 0, 1, SpMat.identity(src_q.dim))]
    # batch all slot corrections into one solve against the E basis
    rhs_cols: list[int] = []
    pieces: list[SpMat] = []
    for a, wa in enumerate(cc.unit_wedges(n)):
        ga = g.grade_of(("e", roots[a]))
        dswa = cc.delstars[n] @ wa
        for b in range(src_q.dim):
            if gs.offsets[b] + ga != i:
                continue
            rhs_cols.append((1 + a) * src_q.dim + b)  # the jet column of (a, b)
            pieces.append(dswa @ gs.basis.column_vec(b))
    if rhs_cols:
        rhs = SpMat.hstack(pieces)
        x = gs.basis.solve(rhs)  # consistent: dstar of E-wedges stays in E
        y = gs.lift_top_block(i, x)
        if y is None:
            raise CertificationFailure(f"correction of L_{i} escaped the top block")
        blocks.append((0, 0, -(n + 1), y.merge_columns(rhs_cols, jmod.dim)))
    mat = SpMat.assemble(tgt.dim, jmod.dim, blocks)
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


def compose_splitter(gs: GeneratedSubmodule, max_jet_dim: int = MAX_JET_DIM) -> SplitterChain:
    r = gs.r
    q1 = gs.quotient(1)
    maps = tuple(build_Li(gs, i) for i in range(1, r + 1))
    jet = None
    if r == 0:
        composite = SpMat.identity(gs.module.dim)
        domain = q1
    else:
        for k in range(1, r + 1):
            jet = semiholonomic(q1, k, max_dim=max_jet_dim, below=jet)
            mat = maps[k - 1].mat
            composite = mat if k == 1 else mat @ prolong(composite, jet)
        domain = jet.module
    cert = certify_map(composite, domain, gs.module, "splitter")
    # splitting property: the i0-block of L is the footpoint projection
    head = composite.gather_rows(list(range(q1.dim)))
    if head != SpMat.identity(q1.dim, composite.ncols):
        raise CertificationFailure("splitter does not split the projection")
    return SplitterChain(
        gs=gs, maps=maps, composite=composite, domain=domain, certificate=cert,
        jet=jet,
    )


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
    matrix: SpMat = field(repr=False)      # harmonic coords of H^{n+1}
    in_kernel: bool = True
    arrows: tuple[BGGArrow, ...] = ()


def operator_on_jet1(gs: GeneratedSubmodule, chain: SplitterChain,
                     coh_next: Cohomology) -> tuple[SpMat, SpMat]:
    """(Dt, d_V o J^1(F)) on J^1(W), W = ``chain.domain``, for F = the
    splitter into C^n: Dt = pi_H o d_V o J^1(F) in harmonic coordinates of
    H^{n+1}, and the values into C^{n+1} before pi_H."""
    cc, n = gs.cc, gs.n
    values = twisted_matrix(cc, n) @ jet1_map_matrix(cc.g, gs.basis @ chain.composite)
    return coh_next.split.harmonic_projection() @ values, values


def bgg_operator(gs: GeneratedSubmodule, chain: SplitterChain,
                 coh_next: Cohomology, comps_next: list[IrrepLabel],
                 source_index: int = 0,
                 max_jet_dim: int = MAX_JET_DIM) -> BGGOperator:
    """D = Dt o iota on Jbar^{r+1}(E/E^1), certified from the left (module
    docstring); its nonzero component blocks are the arrows."""
    cc, n = gs.cc, gs.n
    check_jet_budget(gs.quotient(1), gs.r + 1, max_jet_dim)
    dt, values = operator_on_jet1(gs, chain, coh_next)
    phi, ncols = None, dt.ncols
    if chain.jet is not None:
        phi, pick = equalizer_index_maps(chain.jet)
        ncols = len(pick)
        values = values.merge_columns(phi, ncols)
    in_kernel = (cc.delstars[n] @ values).is_zero()
    dh = certify_from_left(dt, chain.domain, phi, ncols, coh_next.module)
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
            order = operator_order(n, gs.comp, n + 1, compt)
            if order < 1:
                raise CertificationFailure(f"arrow of order {order} from level {n}")
            arrows.append(BGGArrow(
                level=n, source=source_index, target=t, order=order, block=blk,
            ))
    return BGGOperator(
        n=n, source=source_index, matrix=dh, in_kernel=in_kernel, arrows=tuple(arrows),
    )


def operator_order(level_from: int, comp_from: IrrepLabel,
                   level_to: int, comp_to: IrrepLabel) -> int:
    if level_to != level_from + 1:
        raise NonAdjacentLevels(f"levels {level_from} -> {level_to}")
    return _as_int(comp_to.e_eigenvalue - comp_from.e_eigenvalue)


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


def build_bgg_diagram(g: GradedLieAlgebra, lam: Weight,
                      max_module_dim: int = MAX_MODULE_DIM,
                      max_jet_dim: int = MAX_JET_DIM,
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
    verify["oracle_agreement"] = oracle_agrees(g, lam_mod, columns)
    arrows: list[BGGArrow] = []
    partial: list[tuple[int, int]] = []
    if with_arrows:
        verify["splitter_projection"] = True
        verify["splitter_defect"] = True
        verify["splitter_values_kernel"] = True
        for n in range(cc.top):
            for s, comp in enumerate(comps[n]):
                gs = generate_submodule(cc, cohs[n], comp)
                jet_dim = jbar_dim(len(g.pplus_roots()), gs.quotient(1).dim, gs.r + 1)
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
