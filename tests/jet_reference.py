"""Reference semi-holonomic jets: the equalizer-kernel construction, and the
direct-sum model of jets of maps.

Jbar^k is cut out of J^1(Jbar^{k-1}) as the kernel of the difference of the
two projections to J^1(Jbar^{k-2}), its rank is computed by exact
elimination, and every action is restricted by the products sel @ A @ iota.
Slow, but independent of the index-map certificate in ``artifact.jetcalc``,
against which the tests compare it.

The pipeline never builds J^1(V), J^1(f) or the twisted derivative d_V: it
places their blocks through index maps. `jet1`, `jet1_map_matrix` and
`twisted_matrix` build them here in full, from the J^1 formula's block list
``artifact.jetcalc._jet1_terms``, from `block_diag`, and from the complex's
d and bare wedges. The first jet reference writes J^1(V) as
V (+) (p_+ (x) V) with `repmod_reference.tensor` (itself checked against
Kronecker products in ``test_repmod``) and adds the footpoint corrections
one matrix at a time with `+`, `scale` and `reference_kron`, independently
of that block list.

The operator reference certifies D on Jbar^{k+1}(E/E^1) on the built action
of Jbar^{k+1}, extending the Jbar^k of the splitter L^(k), by A'_Z D = D A_Z
label by label (`full_build_certificate`), independently of the left
certificate ``artifact.certify.certify_from_left`` that never builds that
action.

The full-operator reference builds what the pipeline builds only up to the
highest arrow order K: the full splitter L^(r) (`compose_splitter` at k = r)
and the operator on Jbar^{r+1}, every component block and the values into
C^{n+1} (`full_operator`), to compare against D_K o pi.

The splitter reference composes stage by stage in direct-sum coordinates:
Jbar^{k+1}(W) sits in Jbar^k(J^1 W) by index arithmetic (`chain_embedding`),
and Jbar^k(f) is blockdiag(id (x) f) (`jbar_of_map`), independently of the
recursion through ``jetcalc.prolong`` that the pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from artifact.bggcore import compose_splitter
from artifact.gradedla import GradedLieAlgebra
from artifact.hodge import CochainComplex
from artifact.jetcalc import (
    PModMap,
    SemiHolonomicJet,
    _jet1_terms,
    check_equivariance,
    equalizer_index_maps,
    jbar_dim,
    semiholonomic,
)
from artifact.linalg import SpMat
from linalg_reference import reference_kron
from artifact.repmod import PModule
from repmod_reference import tensor
from hodge_reference import pplus_module


def jet1(V: PModule) -> PModule:
    """J^1(V) on [V; p_+ (x) V], each action assembled from `_jet1_terms`."""
    g = V.g
    dv = V.dim
    dim = (1 + len(g.pplus_roots)) * dv
    unit = SpMat.identity(dv)
    return PModule(g=g, dim=dim, actions={
        lab: SpMat.assemble(dim, dim, [
            (i * dv, j * dv, c, unit if m is None else m)
            for i, j, c, m in _jet1_terms(V, lab)
        ])
        for lab in g.p_labels
    })


def jet1_map_matrix(g: GradedLieAlgebra, fmat: SpMat) -> SpMat:
    """The matrix of J^1(f): f on each of the 1 + dim p_+ diagonal blocks."""
    return SpMat.block_diag([fmat] * (1 + len(g.pplus_roots)))


def twisted_matrix(cc: CochainComplex, n: int) -> SpMat:
    """d_V: (f0, Z (x) f1) -> del f0 + (n+1) Z ^ f1 on jet coordinates of
    C^n, as the row of blocks [del, (n+1) eps_1, ..., (n+1) eps_d], each
    eps_a (x) 1_V built in full from the bare wedge."""
    one = SpMat.identity(cc.V.dim)
    return SpMat.hstack([cc.dels[n]] + [reference_kron(e, one).scale(n + 1)
                                        for e in cc.bare_wedges(n)])


def index_matrix(phi, ncols: int) -> SpMat:
    """The 0/1 matrix with one 1 per row, at (q, phi[q])."""
    return SpMat.from_entries(len(phi), ncols, {(q, c): 1 for q, c in enumerate(phi)})


def iota(sh: SemiHolonomicJet) -> SpMat:
    """The embedding Jbar^r -> J^1(Jbar^{r-1}) as a matrix, from its index
    map ``sh.phi`` (the identity when r == 1, with no rows when r == 0)."""
    return index_matrix(sh.phi, sh.module.dim)


def reference_jet1(V: PModule) -> PModule:
    """J^1(V) on [V; p_+ (x) V]: Z acts by Z on V and by the tensor-product
    action on p_+ (x) V, and for |eta_a| <= |Z| the footpoint v0 also goes to
    eta_a (x) [Z, xi_a].v0 (xi_a = f_a / d_a), the block (a + 1, 0)."""
    g = V.g
    roots = g.pplus_roots
    d = len(roots)
    pv = tensor(pplus_module(g), V)
    acts = {}
    for lab in g.p_labels:
        act = SpMat.block_diag([V.actions[lab], pv.actions[lab]])
        w = g.grade_of(lab)
        for a in range(d):
            if w < 1 or g.grade_of(("e", roots[a])) > w:
                continue
            corner = SpMat.from_entries(1 + d, 1 + d, {(1 + a, 0): 1})
            for blab, c in g.bracket_labels(lab, ("f", roots[a])).items():
                act = act + reference_kron(corner, V.actions[blab].scale(c / g.pairing_d[a]))
        acts[lab] = act
    return PModule(g=g, dim=(1 + d) * V.dim, actions=acts, weights=V.weights + pv.weights)


@dataclass
class ReferenceJet:
    r: int
    V: PModule
    module: PModule
    iota: SpMat


def reference_semiholonomic(V: PModule, r: int) -> ReferenceJet:
    amb = jet1(V)
    cur = ReferenceJet(r=1, V=V, module=amb, iota=SpMat.identity(amb.dim))
    for _ in range(2, r + 1):
        cur = reference_extend(cur)
    return cur


def reference_extend(prev: ReferenceJet) -> ReferenceJet:
    """One step Jbar^{k-1} -> Jbar^k."""
    V = prev.V
    g = V.g
    d = len(g.pplus_roots)
    dv = V.dim
    k = prev.r + 1
    amb = jet1(prev.module)
    prev_dim = prev.module.dim
    # two maps J^1(Jbar^{k-1}) -> J^1(Jbar^{k-2})
    pi_prev = truncation_matrix(d, dv, k - 1)
    m_jet = SpMat.block_diag([pi_prev] * (1 + d))
    m_foot = prev.iota @ SpMat.identity(prev_dim, amb.dim)
    diff = m_jet - m_foot

    dims = [d**j * dv for j in range(k + 1)]
    new_dim = sum(dims)
    offs = [sum(dims[:j]) for j in range(k + 1)]
    entries = {}
    for j in range(k):
        for i in range(dims[j]):
            entries[offs[j] + i, offs[j] + i] = 1
    for j in range(1, k + 1):
        for a in range(d):
            for t in range(dims[j - 1]):
                amb_row = prev_dim * (1 + a) + offs[j - 1] + t
                col = offs[j] + a * dims[j - 1] + t
                entries[amb_row, col] = entries.get((amb_row, col), 0) + 1
    iota = SpMat.from_entries(amb.dim, new_dim, entries)
    if not (diff @ iota).is_zero():
        raise AssertionError("iota leaves the equalizer")
    if diff.rank() != amb.dim - new_dim:
        raise AssertionError("the equalizer is not the direct-sum model")
    pick = [0] * new_dim
    for j in range(k):
        for i in range(dims[j]):
            pick[offs[j] + i] = offs[j] + i
    for a in range(d):
        for t in range(dims[k - 1]):
            pick[offs[k] + a * dims[k - 1] + t] = prev_dim * (1 + a) + offs[k - 1] + t
    sel = SpMat.from_entries(new_dim, amb.dim, {(p, q): 1 for p, q in enumerate(pick)})
    if sel @ iota != SpMat.identity(new_dim):
        raise AssertionError("sel is not a left inverse of iota")
    acts = {}
    for lab, A in amb.actions.items():
        restricted = A @ iota
        if not (diff @ restricted).is_zero():
            raise AssertionError(f"{lab} does not preserve the equalizer")
        acts[lab] = sel @ restricted
    mod = PModule(g=g, dim=new_dim, actions=acts)
    return ReferenceJet(r=k, V=V, module=mod, iota=iota)


def truncation_matrix(d: int, dv: int, r: int) -> SpMat:
    """pi_r: DS_r -> DS_{r-1}, drop the top slot."""
    return SpMat.identity(jbar_dim(d, dv, r - 1), jbar_dim(d, dv, r))


def prev(sh: SemiHolonomicJet) -> SemiHolonomicJet:
    """Jbar^{r-1}(V), rebuilt, for r >= 1."""
    return semiholonomic(sh.V, sh.r - 1)


def ambient(sh: SemiHolonomicJet):
    """J^1(Jbar^{r-1}), rebuilt, for r >= 1."""
    return jet1(prev(sh).module)


def projection_pair(sh: SemiHolonomicJet):
    """The two maps Jbar^r -> J^1(Jbar^{r-2}) whose equality cuts out the
    semi-holonomic subspace, for r >= 1 (with no rows when r == 1)."""
    below = prev(sh)
    d = len(sh.V.g.pplus_roots)
    pdim = below.module.dim
    m_jet = SpMat.block_diag([truncation_matrix(d, sh.V.dim, below.r)] * (1 + d))
    foot = SpMat.identity(pdim, (1 + d) * pdim)
    return m_jet @ iota(sh), (iota(below) @ foot) @ iota(sh)


def full_build_certificate(gs, chain, coh_next, mat: SpMat) -> PModMap:
    """mat on Jbar^K(E/E^1) -> H^{n+1}, K = k + 1 for the splitter's
    Jbar^k, checked against the built action of Jbar^K, extended from
    Jbar^k."""
    sh = semiholonomic(gs.quotient(1), chain.jet.r + 1, below=chain.jet)
    return check_equivariance(mat, sh.module, coh_next.module)


def full_operator(gs, coh_next, comps_next) -> tuple[list[SpMat], SpMat]:
    """The operator on Jbar^{r+1}(E/E^1) out of the full splitter L^(r):
    (its component block into each of comps_next, zero blocks included; the
    values d_V o J^1(L) o iota into C^{n+1})."""
    cc, n = gs.cc, gs.n
    chain = compose_splitter(gs)
    values = twisted_matrix(cc, n) @ jet1_map_matrix(cc.g, gs.basis @ chain.composite)
    phi, pick = equalizer_index_maps(chain.jet)
    values = values @ index_matrix(phi, len(pick))
    dh = coh_next.harmonic_projection() @ values
    xc = SpMat.hstack([c.embedding for c in comps_next]).solve(dh)
    blocks, row0 = [], 0
    for c in comps_next:
        blocks.append(xc.submatrix(list(range(row0, row0 + c.dim)), list(range(xc.ncols))))
        row0 += c.dim
    return blocks, values


def jbar_of_map(g: GradedLieAlgebra, fmat: SpMat, k: int) -> SpMat:
    """Jbar^k(f) in DS coordinates: blockdiag(id_{(x)^j p_+} (x) f)."""
    d = len(g.pplus_roots)
    blocks = [fmat]
    for j in range(1, k + 1):
        blocks.append(reference_kron(SpMat.identity(d**j), fmat))
    return SpMat.block_diag(blocks)


def chain_embedding(g: GradedLieAlgebra, dv: int, k: int) -> SpMat:
    """DS_{k+1}(W) -> DS_k(J^1 W): the inclusion Jbar^{k+1}(W) in
    Jbar^k(J^1 W) in direct-sum coordinates (dv = dim W)."""
    d = len(g.pplus_roots)
    src_dims = [d**j * dv for j in range(k + 2)]
    src_offs = [sum(src_dims[:j]) for j in range(k + 2)]
    jdim = (1 + d) * dv
    tgt_dims = [d**j * jdim for j in range(k + 1)]
    tgt_offs = [sum(tgt_dims[:j]) for j in range(k + 1)]
    entries = {}
    for j in range(k + 2):
        # footpoint chain: T_j(W) -> (x)^j p_+ (x) (W part of J^1 W), j <= k
        if j <= k:
            for m in range(d**j):
                for s in range(dv):
                    entries[tgt_offs[j] + m * jdim + s, src_offs[j] + m * dv + s] = 1
        # tensor chain: T_j(W) = (x)^{j-1} p_+ (x) (p_+ (x) W part), j >= 1
        if 1 <= j:
            for mprime in range(d ** (j - 1)):
                for a in range(d):
                    for s in range(dv):
                        row = tgt_offs[j - 1] + mprime * jdim + dv + a * dv + s
                        col = src_offs[j] + (mprime * d + a) * dv + s
                        entries[row, col] = entries.get((row, col), 0) + 1
    return SpMat.from_entries(sum(tgt_dims), sum(src_dims), entries)


def reference_splitter(gs, maps) -> SpMat:
    """The composite Jbar^r(E/E^1) -> E of L_1..L_r, stage by stage: stage j
    is Jbar^{r-j}(L_j) o (Jbar^{r-j+1}(E/E^j) in Jbar^{r-j}(J^1(E/E^j)))."""
    g = gs.cc.g
    r = len(maps)
    composite = None
    for j in range(1, r + 1):
        k = r - j
        stage = jbar_of_map(g, maps[j - 1], k) @ chain_embedding(
            g, gs.quotient(j).dim, k
        )
        composite = stage if composite is None else stage @ composite
    return composite
