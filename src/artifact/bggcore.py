"""Generated submodules, splitting operators, and BGG diagrams.

For a harmonic component E_{i0} inside C^n = Lambda^n p_+ (x) V, the
p_+-closure E carries the filtration E^i by E-eigenvalue offsets. The maps

  L_i(e, psi) = j_i(e) - (n+1) box^{-1} dstar((Alt psi)_i),

composed through semi-holonomic prolongations, give the splitters
L^(k): Jbar^k(E/E^1) -> E/E^{k+1} by the recursion

  L^(0) = id,   L^(k) = L_k o J^1(L^(k-1)) o iota   (iota: Jbar^k in
                                                     J^1(Jbar^{k-1})),

up to the full splitter L = L^(r), r the depth of the filtration. One more
step of it,

  D = pi_H o d_V o J^1(L) o iota,   d_V(f0, Z (x) f1) = del(f0) + (n+1) Z ^ f1,

is the level-to-level operator whose nonzero component blocks are the arrows
of the diagram. Each step is `jetcalc.prolong` on the one jet tower, from
Jbar^0 = E/E^1 (at k = 1 iota is the identity). All compositions are exact.

An arrow of order k reads only the k-jet of its section. pi_H kills im del,
and every other term of d_V o J^1 raises the E-eigenvalue by the grade, at
least 1, of its p_+ slot. So the parts of L at offset >= k reach a target of
order k only through del, and the component of D into it needs only L^(k-1)
and one J^1 step to Jbar^k. With K the highest target order, capped at
r + 1, D = D_K o pi, for D_K = pi_H o d_V o J^1(L^(K-1)) o iota on Jbar^K
and pi: Jbar^{r+1} -> Jbar^K the prefix projection in direct-sum
coordinates. pi is a surjective P-map, so D_K is a P-map with the same
arrows: `build_bgg_diagram` builds L^(K-1) and D_K only, and L_K..L_r never.

The operator is built and certified on J^1(W), W = Jbar^{K-1}(E/E^1) the
domain of L^(K-1), whose action the splitter already has:
Dt = pi_H o d_V o J^1(L^(K-1)) on J^1(W), D_K = Dt o iota (Dt placed
through phi of Jbar^K, in one assembly), and D_K o A_Z = Dt o A^{J^1}_Z o
iota by equalizer condition (4) for Jbar^K. That condition holds because
Jbar^K is the equalizer of two P-maps, both certified at level K - 1, and
conditions (1)-(3) on phi are checked on every call; so checking A'_Z o D_K
against Dt o A^{J^1}_Z placed through phi (`certify.certify_from_left`)
certifies D_K, and the action of Jbar^K is never built; nor are d_V and
J^1(L^(K-1)), whose composite is assembled from product blocks.

This module computes; `certify` checks. Every splitter and operator is
certified there to commute with the p-action before it is used, and the
identity battery `verify` reports runs there too. `build_bgg_diagram`
runs the cochain identities first, while no Lambda^n p_+ exists, then
builds H^0 and makes one pass over the levels: step n builds H^{n+1} and
its components, then runs level n's checks, then level n's sources, so
every reader finds Lambda^n and Lambda^{n+1} among the complex's two
levels, each is built once, and each reader places the p-action on C^n as
blocks of them and of V's matrices, and the wedge eps_a (x) 1_V as blocks
of their bare wedges. The pass keeps the cohomology of levels
n and n + 1 only, and every level's components. The columns and the oracle
check come last. A source whose Jbar^{r+1}(E/E^1) exceeds the jet budget is
left partial, by `generate_submodule` at the first layer of E that shows it.
"""

from __future__ import annotations

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
    check_chain_budget,
    cohomology_module,
)
from .jetcalc import (
    MAX_JET_DIM,
    SemiHolonomicJet,
    check_jet_budget,
    equalizer_index_maps,
    prolong,
    semiholonomic,
)
from .linalg import LinAlgError, SpMat, kron_blocks, qstr
from .repmod import (
    MAX_CHAIN_DIM,
    MAX_MODULE_DIM,
    DimensionOverBudget,
    IrrepLabel,
    PModule,
    action_on_span,
    build_irrep,
    check_module_budget,
    decompose_completely_reducible,
    layered_closure,
    positions_by_weight,
)
from .rootspace import Weight, dominant_representative_for


class SingularLaplacianBlock(Exception):
    """The Laplacian failed to be invertible on a filtration block."""


def _as_int(x) -> int:
    n = int(x)
    if n != x:
        raise CertificationFailure(f"expected an integer, got {qstr(x)}")
    return n


class GeneratedSubmodule:
    """The P-submodule E generated by one harmonic component, with its
    eigenvalue filtration in degree-adapted coordinates: ``basis`` is
    C^n coords x dim E, and ``offsets`` holds eigenvalue - i0 per column."""

    def __init__(self, cc: CochainComplex, n: int, comp: IrrepLabel, i0, basis: SpMat,
                 offsets: tuple[int, ...], r: int, module: PModule):
        self.cc, self.n, self.comp, self.i0, self.basis = cc, n, comp, i0, basis
        self.offsets, self.r, self.module = offsets, r, module
        self._quotients: dict[int, PModule] = {}
        self._box: SpMat | None = None
        self._boxinv: dict[int, SpMat] = {}

    def block_columns(self, j: int) -> list[int]:
        return [k for k, off in enumerate(self.offsets) if off == j]

    def quotient(self, i: int) -> PModule:
        """E/E^i in degree-adapted coordinates (columns of offset < i)."""
        i = min(i, self.r + 1)
        if i in self._quotients:
            return self._quotients[i]
        cut = sum(1 for off in self.offsets if off < i)
        idx = list(range(cut))
        mod = self._quotients[i] = PModule(
            g=self.module.g, dim=cut,
            actions={l: A.submatrix(idx, idx) for l, A in self.module.actions.items()},
        )
        return mod

    def e_coordinates(self, x: SpMat, what: str) -> SpMat:
        """x (in C^n) in the E basis; raises CertificationFailure naming
        ``what`` and the level when a column of x leaves span E."""
        try:
            return self.basis.solve(x)
        except LinAlgError as exc:
            raise CertificationFailure(f"{what} leaves E in C^{self.n}") from exc

    def box_on_e(self) -> SpMat:
        """The Laplacian restricted to E, in E coordinates. E lies in
        ker dstar_{n-1} (``generate_submodule`` checks it), so the
        d_{n-1} dstar_{n-1} term of box = d dstar + dstar d vanishes on E,
        and box on E is dstar_n d_n."""
        if self._box is None:
            cc, n = self.cc, self.n
            img = SpMat.assemble(cc.dim(n), self.basis.ncols,
                                 [(0, 0, 1, (cc.delstars[n], cc.dels[n] @ self.basis))])
            self._box = self.e_coordinates(img, "box")
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


def generate_submodule(cc: CochainComplex, coh: Cohomology, comp: IrrepLabel,
                       max_jet_dim: int = MAX_JET_DIM) -> GeneratedSubmodule:
    """Close the harmonic component under the p_+ action, layering the basis
    by E-eigenvalue offset: `layered_closure` with each raising action and
    its grade, the actions of one grade in one assembly of product blocks
    (``cc.act``), as is the p-action on E. The component lies in E-grade
    i0, and an action of grade s adds s to the E-grade, so layer j lies in
    E-grade i0 + j and the layers are independent. Each basis vector is
    certified to have one weight, and that weight's E-eigenvalue to be its
    layer's grade, and E to lie in ker dstar_{n-1} (on C^0, dstar_{-1} is
    the zero map into C^{-1} = 0).

    The one home of the jet budget: a nonempty layer j means depth r >= j,
    so layer j raises DimensionOverBudget when dim Jbar^{j+1}(E/E^1) exceeds
    max_jet_dim, and nothing past it is built. That refuses exactly the
    sources whose Jbar^{r+1} is over budget."""
    g = cc.g
    n = coh.n
    i0 = comp.e_eigenvalue
    # one op per grade s >= 1, the images of its raising actions side by side:
    # they all land in the same layer, in the order the labels come
    by_grade: dict[int, list] = {}
    for lab in g.p_labels:
        if g.grade_of(lab) >= 1:
            by_grade.setdefault(g.grade_of(lab), []).append(lab)
    raising = [(lambda x, labs=labs: cc.act(n, labs, x), s) for s, labs in by_grade.items()]
    layers: list[tuple[int, SpMat]] = []
    for j, b in layered_closure(coh.ker_box @ comp.embedding, raising):
        layers.append((j, b))
        check_jet_budget(len(g.pplus_roots), layers[0][1].ncols, j + 1, max_jet_dim)
    basis = SpMat.hstack([b for _, b in layers])
    m = basis.ncols
    offsets = tuple(j for j, b in layers for _ in range(b.ncols))
    if any(a > b for a, b in zip(offsets, offsets[1:])):
        raise CertificationFailure("degree-adapted basis out of order")
    r = max(offsets)
    if not (cc.delstars[n - 1] @ basis).is_zero():
        raise CertificationFailure(f"E is not inside ker dstar on C^{n}")
    acts = action_on_span(basis, cc.act(n, g.p_labels, basis), g.p_labels)
    supp: dict[int, list[int]] = {}
    for i, k in basis.support():
        supp.setdefault(k, []).append(i)
    weights = []
    for k in range(m):
        ws = {cc.weights[n][i] for i in supp.get(k, ())}
        if len(ws) != 1:
            raise CertificationFailure(f"E basis vector {k} is not a weight vector")
        weights.append(ws.pop())
        if g.e_eigenvalue(weights[k]) != i0 + offsets[k]:
            raise CertificationFailure(f"E basis vector {k} is off its E-grade")
    module = PModule(g=g, dim=m, actions=acts, weights=tuple(weights))
    return GeneratedSubmodule(
        cc=cc, n=n, comp=comp, i0=i0, basis=basis,
        offsets=offsets, r=r, module=module,
    )


def build_Li(gs: GeneratedSubmodule, i: int) -> SpMat:
    """L_i: J^1(E/E^i) -> E/E^{i+1}, with (1 + dim p_+) dim E/E^i columns,
    the coordinates of J^1(E/E^i)."""
    if not 1 <= i <= gs.r:
        raise ValueError(f"L_i needs 1 <= i <= {gs.r}, got {i}")
    cc, n, g = gs.cc, gs.n, gs.cc.g
    roots = g.pplus_roots
    src_q = gs.quotient(i)
    tgt = gs.quotient(i + 1)
    width = (1 + len(roots)) * src_q.dim
    # the footpoint projection; the rows of block i take the corrections
    blocks = [(0, 0, 1, SpMat.identity(src_q.dim))]
    # batch all slot corrections into one solve against the E basis
    rhs_cols: list[int] = []
    pieces = [SpMat(cc.dim(n), 0)]
    for a, eps in enumerate(cc.bare_wedges(n)):
        ga = g.grade_of(("e", roots[a]))
        needed = [b for b in range(src_q.dim) if gs.offsets[b] + ga == i]
        if not needed:
            continue
        rhs_cols.extend((1 + a) * src_q.dim + b for b in needed)  # the jet columns of (a, b)
        # (eps_a (x) 1_V) on the needed E columns, placed as blocks
        wedged = SpMat.assemble(cc.dim(n + 1), len(needed), kron_blocks(
            (eps, cc.V.dim), right=gs.basis.select_columns(needed)))
        pieces.append(cc.delstars[n] @ wedged)
    # dstar of E-wedges stays in E
    x = gs.e_coordinates(SpMat.hstack(pieces), f"correction of L_{i}")
    y = gs.lift_top_block(i, x)
    if y is None:
        raise CertificationFailure(f"correction of L_{i} escaped the top block")
    blocks.append((0, rhs_cols, -(n + 1), y))
    return SpMat.assemble(tgt.dim, width, blocks)


class SplitterChain:
    """L_1..L_k (``maps[i - 1]`` is L_i, on J^1(E/E^i)) and their
    semi-holonomic composite L^(k): Jbar^k(E/E^1) -> E/E^{k+1}.

    ``jet`` is the Jbar^k(E/E^1) the composite is defined on, so
    k = ``jet.r``, and Jbar^0 = E/E^1 when k == 0; the operator extends it
    to Jbar^K, K = k + 1."""

    def __init__(self, maps: tuple[SpMat, ...], composite: SpMat, jet: SemiHolonomicJet):
        self.maps, self.composite, self.jet = maps, composite, jet


def compose_splitter(gs: GeneratedSubmodule, k: int | None = None) -> SplitterChain:
    """L^(k): Jbar^k(E/E^1) -> E/E^{k+1}, certified as a P-map that splits
    the footpoint projection; k defaults to r, the full splitter L. The
    composite starts from L^(0) = id on Jbar^0 = E/E^1."""
    k = gs.r if k is None else k
    if not 0 <= k <= gs.r:
        raise ValueError(f"L^(k) needs 0 <= k <= {gs.r}, got {k}")
    q1 = gs.quotient(1)
    maps = tuple(build_Li(gs, i) for i in range(1, k + 1))
    jet = semiholonomic(q1, 0)
    composite = SpMat.identity(q1.dim)
    for i, li in enumerate(maps, 1):
        jet = semiholonomic(q1, i, below=jet)
        composite = li @ prolong(composite, jet)
    certify_map(composite, jet.module, gs.quotient(k + 1), "splitter")
    # splitting property: the i0-block of L is the footpoint projection
    head = composite.gather_rows(list(range(q1.dim)))
    if head != SpMat.identity(q1.dim, composite.ncols):
        raise CertificationFailure("splitter does not split the projection")
    return SplitterChain(maps=maps, composite=composite, jet=jet)


class BGGArrow:
    def __init__(self, level: int, source: int, target: int, order: int, block: SpMat):
        self.level, self.source, self.target = level, source, target
        self.order, self.block = order, block


class BGGOperator:
    """``matrix`` lands in the harmonic coordinates of H^{n+1}."""

    def __init__(self, n: int, source: int, matrix: SpMat, in_kernel: bool,
                 arrows: tuple[BGGArrow, ...]):
        self.n, self.source, self.matrix = n, source, matrix
        self.in_kernel, self.arrows = in_kernel, arrows


def operator_on_jet1(gs: GeneratedSubmodule, chain: SplitterChain,
                     coh_next: Cohomology) -> tuple[SpMat, SpMat]:
    """(Dt, d_V o J^1(F)) on J^1(W), W = ``chain.jet.module``, for F = the
    splitter L^(K-1) into C^n (its target E/E^K is spanned by the leading
    columns of the E basis): Dt = pi_H o d_V o J^1(F) in harmonic
    coordinates of H^{n+1}, and the values into C^{n+1} before pi_H. The
    values are the product block del F at column block 0 and
    (n+1) (eps_a (x) 1_V) F at block 1 + a, placed from the bare wedge eps_a
    (`linalg.kron_blocks` of the pair (eps_a, dim V) with F on the right):
    neither d_V nor J^1(F) is built."""
    cc, n = gs.cc, gs.n
    F = gs.basis.select_columns(list(range(chain.composite.nrows))) @ chain.composite
    eps = cc.bare_wedges(n)
    w = F.ncols

    def blocks():
        yield 0, 0, 1, (cc.dels[n], F)
        for a, e in enumerate(eps):
            yield from kron_blocks((e, cc.V.dim), c=n + 1, right=F, col_off=(1 + a) * w)

    values = SpMat.assemble(cc.dim(n + 1), (1 + len(eps)) * w, blocks())
    return coh_next.harmonic_projection() @ values, values


def bgg_operator(gs: GeneratedSubmodule, chain: SplitterChain,
                 coh_next: Cohomology, comps_next: list[IrrepLabel],
                 source_index: int = 0) -> BGGOperator:
    """D_K = Dt o iota on Jbar^K(E/E^1), K = ``chain.jet.r`` + 1, certified
    from the left (module docstring); its nonzero component blocks are the
    arrows. ``in_kernel`` is dstar_n o values = 0 on the rows of C^n whose
    E-grade offset from i0 is below K; from K on the truncated values may
    leave ker dstar. It takes no jet budget: `generate_submodule` has
    refused every source whose Jbar^{r+1} exceeds it, and K <= r + 1."""
    cc, n = gs.cc, gs.n
    dt, values = operator_on_jet1(gs, chain, coh_next)
    phi, pick = equalizer_index_maps(chain.jet)
    values = SpMat.assemble(values.nrows, len(pick), [(0, phi, 1, values)])
    K = chain.jet.r + 1
    low = [i for mu, rows in positions_by_weight(cc.weights[n]).items()
           if cc.g.e_eigenvalue(mu) - gs.i0 < K for i in rows]
    in_kernel = (cc.delstars[n].gather_rows(low) @ values).is_zero()
    dh = certify_from_left(dt, chain.jet.module, phi, len(pick), coh_next.module)
    arrows = []
    xc = SpMat.hstack([SpMat(dh.nrows, 0)] + [c.embedding for c in comps_next]).solve(dh)
    row0 = 0
    for t, compt in enumerate(comps_next):
        blk = xc.gather_rows(range(row0, row0 + compt.dim))
        row0 += compt.dim
        if blk.is_zero():
            continue
        order = operator_order(gs.comp, compt)
        if order < 1:
            raise CertificationFailure(f"arrow of order {order} from level {n}")
        arrows.append(BGGArrow(
            level=n, source=source_index, target=t, order=order, block=blk,
        ))
    return BGGOperator(
        n=n, source=source_index, matrix=dh, in_kernel=in_kernel, arrows=tuple(arrows),
    )


def operator_order(comp_from: IrrepLabel, comp_to: IrrepLabel) -> int:
    """The order of an arrow from comp_from at level n to comp_to at level
    n + 1: the difference of their E-eigenvalues, certified integral."""
    return _as_int(comp_to.e_eigenvalue - comp_from.e_eigenvalue)


def operator_jet_order(gs: GeneratedSubmodule, comps_next: list[IrrepLabel]) -> int:
    """K = min(r + 1, the highest order of a target of positive order): the
    operator out of gs is D_K on Jbar^K (module docstring). With no such
    target every block of D is zero, and K = 1 still checks it."""
    orders = [operator_order(gs.comp, t) for t in comps_next]
    return min(gs.r + 1, max((o for o in orders if o >= 1), default=1))


class BGGDiagram:
    """The columns, one list of `IrrepLabel`s per level, and the arrows in
    (level, source, target) order: `build_bgg_diagram` appends them so."""

    def __init__(self, algebra: str, sigma: tuple[int, ...], weight: Weight,
                 columns: list[list[IrrepLabel]], arrows: list[BGGArrow],
                 partial: list[tuple[int, int]], verify: dict[str, bool]):
        self.algebra, self.sigma, self.weight, self.columns = algebra, sigma, weight, columns
        self.arrows, self.partial, self.verify = arrows, partial, verify


def build_bgg_diagram(g: GradedLieAlgebra, lam: Weight,
                      max_module_dim: int = MAX_MODULE_DIM,
                      max_jet_dim: int = MAX_JET_DIM,
                      with_arrows: bool = True,
                      max_chain_dim: int = MAX_CHAIN_DIM) -> BGGDiagram:
    """Full pipeline: dual-convention module, cohomology columns, splitting
    operators, arrows. The input weight labels the zeroth column; the module
    acted on is the irreducible with highest weight dominant_rep(-lam).

    The pass order: the cochain identities, which read only d, dstar and
    G_n, before any Lambda^n p_+ is built; H^0 and its components; then for
    each n < top, H^{n+1} and its components, the Leibniz and commutator
    checks at n, and level n's sources; the columns and the oracle check
    last. So Lambda^n and Lambda^{n+1} are the complex's two levels whenever
    level n is read, and each is built once (``CochainComplex``). Level n's
    checks and sources read the cohomology records of H^n and H^{n+1} only,
    and the columns only the components of each level, so the pass holds
    two ``Cohomology`` records: H^{n-1} is dropped before H^{n+1} is built.
    Both budgets are read off d = dim p_+ and Weyl's dim V before any
    module matrix or structure constant is built: ``max_module_dim`` caps
    dim V (`repmod.check_module_budget`), then ``max_chain_dim`` the largest
    dim C^n (`hodge.check_chain_budget`), and only then is V built."""
    rs = g.rs
    if any(x < 0 for x in lam):
        raise ValueError("weight must be dominant integral")
    lam_mod = dominant_representative_for(
        rs, range(1, rs.rank + 1), tuple(-x for x in lam)
    )
    dim_v = check_module_budget(rs, lam_mod, max_module_dim)
    check_chain_budget(len(g.pplus_roots), dim_v, max_chain_dim)
    V = build_irrep(g, lam_mod)
    cc = build_cochain_complex(g, V)
    # before any Lambda^n exists: G_n is built and dropped level by level
    verify = verify_cochain_identities(cc)
    verify.update(codifferential_leibniz=True, differential_commutator=True)
    if with_arrows:
        verify.update(splitter_projection=True, splitter_defect=True, splitter_values_kernel=True)
    arrows: list[BGGArrow] = []
    partial: list[tuple[int, int]] = []
    coh_next = cohomology_module(cc, 0)
    comps = [decompose_completely_reducible(coh_next.module)]
    # one pass (module docstring): step n builds H^{n+1}, so Lambda^n and
    # Lambda^{n+1} are the complex's two levels while level n's checks and
    # sources run; H^{n-1} is dropped before H^{n+1} is built
    for n in range(cc.top):
        coh = coh_next
        coh_next = cohomology_module(cc, n + 1)
        comps.append(decompose_completely_reducible(coh_next.module))
        verify["codifferential_leibniz"] &= verify_codifferential_leibniz(cc, n)
        verify["differential_commutator"] &= verify_differential_commutator(cc, n)
        for s, comp in enumerate(comps[n] if with_arrows else ()):
            try:
                gs = generate_submodule(cc, coh, comp, max_jet_dim)
            except DimensionOverBudget:
                partial.append((n, s))
                continue
            k = operator_jet_order(gs, comps[n + 1]) - 1
            chain = compose_splitter(gs, k)
            op = bgg_operator(gs, chain, coh_next, comps[n + 1], source_index=s)
            verify["splitter_projection"] &= verify_splitter_projection(gs, chain)
            verify["splitter_defect"] &= verify_splitter_defect(gs, chain)
            verify["splitter_values_kernel"] &= op.in_kernel
            arrows.extend(op.arrows)
    verify["oracle_agreement"] = oracle_agrees(g, lam_mod, comps)
    return BGGDiagram(
        algebra=rs.label,
        sigma=tuple(sorted(g.par.sigma)),
        weight=tuple(lam),
        columns=comps,
        arrows=arrows,
        partial=partial,
        verify=verify,
    )
