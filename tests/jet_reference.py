"""Reference semi-holonomic jets: the equalizer-kernel construction, and the
direct-sum model of jets of maps.

Jbar^k is cut out of J^1(Jbar^{k-1}) as the kernel of the difference of the
two projections to J^1(Jbar^{k-2}), its rank is computed by exact
elimination, and every action is restricted by the products sel @ A @ iota.
Slow, but independent of the index-map certificate in ``artifact.jetcalc``,
against which the tests compare it.

The first jet reference writes J^1(V) as V (+) (p_+ (x) V) with `repmod.tensor`
(itself checked against Kronecker products in ``test_repmod``) and adds the
footpoint corrections one matrix at a time with `+`, `scale` and `kron`,
independently of the block list ``artifact.jetcalc.jet1`` assembles.

The splitter reference composes stage by stage in direct-sum coordinates:
Jbar^{k+1}(W) sits in Jbar^k(J^1 W) by index arithmetic (`chain_embedding`),
and Jbar^k(f) is blockdiag(id (x) f) (`jbar_of_map`), independently of the
recursion through ``jetcalc.prolong`` that the pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from artifact.gradedla import GradedLieAlgebra
from artifact.jetcalc import SemiHolonomicJet, jbar_dim, jet1, semiholonomic
from artifact.linalg import SpMat
from artifact.repmod import PModule, pplus_module, tensor


def reference_jet1(V: PModule) -> PModule:
    """J^1(V) on [V; p_+ (x) V]: Z acts by Z on V and by the tensor-product
    action on p_+ (x) V, and for |eta_a| <= |Z| the footpoint v0 also goes to
    eta_a (x) [Z, xi_a].v0 (xi_a = f_a / d_a), the block (a + 1, 0)."""
    g = V.g
    roots = g.pplus_roots()
    d = len(roots)
    dual = g.dual_bases()
    pv = tensor(pplus_module(g), V)
    acts = {}
    for lab in g.p_labels():
        act = SpMat.block_diag([V.actions[lab], pv.actions[lab]])
        w = g.grade_of(lab)
        for a in range(d):
            if w < 1 or g.grade_of(("e", roots[a])) > w:
                continue
            corner = SpMat.from_entries(1 + d, 1 + d, {(1 + a, 0): 1})
            for blab, c in g.bracket_labels(lab, ("f", roots[a])).items():
                act = act + corner.kron(V.actions[blab].scale(c / dual.d[a]))
        acts[lab] = act
    return PModule(
        g=g, dim=(1 + d) * V.dim, e_grades=V.e_grades + pv.e_grades, actions=acts,
        weights=None if V.weights is None else V.weights + pv.weights,
    )


@dataclass
class ReferenceJet:
    r: int
    V: PModule
    module: PModule
    iota: SpMat | None = None


def reference_semiholonomic(V: PModule, r: int) -> ReferenceJet:
    cur = ReferenceJet(r=1, V=V, module=jet1(V))
    for _ in range(2, r + 1):
        cur = reference_extend(cur)
    return cur


def reference_extend(prev: ReferenceJet) -> ReferenceJet:
    """One step Jbar^{k-1} -> Jbar^k."""
    V = prev.V
    g = V.g
    d = len(g.pplus_roots())
    dv = V.dim
    k = prev.r + 1
    amb = jet1(prev.module)
    prev_dim = prev.module.dim
    # two maps J^1(Jbar^{k-1}) -> J^1(Jbar^{k-2})
    pi_prev = truncation_matrix(d, dv, k - 1)
    m_jet = SpMat.block_diag([pi_prev] * (1 + d))
    iota_prev = prev.iota if prev.iota is not None else SpMat.identity(prev_dim)
    foot = SpMat(prev_dim, amb.dim)
    for i in range(prev_dim):
        foot.set(i, i, 1)
    m_foot = iota_prev @ foot
    diff = m_jet - m_foot

    dims = [d**j * dv for j in range(k + 1)]
    new_dim = sum(dims)
    offs = [sum(dims[:j]) for j in range(k + 1)]
    iota = SpMat(amb.dim, new_dim)
    for j in range(k):
        for i in range(dims[j]):
            iota.set(offs[j] + i, offs[j] + i, 1)
    for j in range(1, k + 1):
        for a in range(d):
            for t in range(dims[j - 1]):
                amb_row = prev_dim * (1 + a) + offs[j - 1] + t
                col = offs[j] + a * dims[j - 1] + t
                iota.set(amb_row, col, iota.get(amb_row, col) + 1)
    if not (diff @ iota).is_zero():
        raise AssertionError("iota leaves the equalizer")
    if diff.rank() != amb.dim - new_dim:
        raise AssertionError("the equalizer is not the direct-sum model")
    sel = SpMat(new_dim, amb.dim)
    pick = [0] * new_dim
    for j in range(k):
        for i in range(dims[j]):
            pick[offs[j] + i] = offs[j] + i
    for a in range(d):
        for t in range(dims[k - 1]):
            pick[offs[k] + a * dims[k - 1] + t] = prev_dim * (1 + a) + offs[k - 1] + t
    for p, q in enumerate(pick):
        sel.set(p, q, 1)
    if sel @ iota != SpMat.identity(new_dim):
        raise AssertionError("sel is not a left inverse of iota")
    acts = {}
    for lab, A in amb.actions.items():
        restricted = A @ iota
        if not (diff @ restricted).is_zero():
            raise AssertionError(f"{lab} does not preserve the equalizer")
        acts[lab] = sel @ restricted
    mod = PModule(
        g=g,
        dim=new_dim,
        e_grades=tuple(amb.e_grades[i] for i in pick),
        actions=acts,
        weights=None if amb.weights is None else tuple(amb.weights[i] for i in pick),
    )
    return ReferenceJet(r=k, V=V, module=mod, iota=iota)


def truncation_matrix(d: int, dv: int, r: int) -> SpMat:
    """pi_r: DS_r -> DS_{r-1}, drop the top slot."""
    return SpMat.identity(jbar_dim(d, dv, r - 1), jbar_dim(d, dv, r))


def prev(sh: SemiHolonomicJet) -> SemiHolonomicJet | None:
    """Jbar^{r-1}(V), rebuilt (None when r == 1)."""
    if sh.r == 1:
        return None
    return semiholonomic(sh.V, sh.r - 1, max_dim=sh.module.dim)


def ambient(sh: SemiHolonomicJet):
    """J^1(Jbar^{r-1}), rebuilt (None when r == 1)."""
    below = prev(sh)
    return None if below is None else jet1(below.module)


def projection_pair(sh: SemiHolonomicJet):
    """The two maps Jbar^r -> J^1(Jbar^{r-2}) whose equality cuts out the
    semi-holonomic subspace (None when r < 2)."""
    below = prev(sh)
    if below is None:
        return None
    d = len(sh.V.g.pplus_roots())
    pdim = below.module.dim
    m_jet = SpMat.block_diag([truncation_matrix(d, sh.V.dim, below.r)] * (1 + d))
    iota_prev = below.iota if below.iota is not None else SpMat.identity(pdim)
    foot = SpMat.identity(pdim, (1 + d) * pdim)
    return m_jet @ sh.iota, (iota_prev @ foot) @ sh.iota


def jbar_of_map(g: GradedLieAlgebra, fmat: SpMat, k: int) -> SpMat:
    """Jbar^k(f) in DS coordinates: blockdiag(id_{(x)^j p_+} (x) f)."""
    d = len(g.pplus_roots())
    blocks = [fmat]
    for j in range(1, k + 1):
        blocks.append(SpMat.identity(d**j).kron(fmat))
    return SpMat.block_diag(blocks)


def chain_embedding(g: GradedLieAlgebra, dv: int, k: int) -> SpMat:
    """DS_{k+1}(W) -> DS_k(J^1 W): the inclusion Jbar^{k+1}(W) in
    Jbar^k(J^1 W) in direct-sum coordinates (dv = dim W)."""
    d = len(g.pplus_roots())
    src_dims = [d**j * dv for j in range(k + 2)]
    src_offs = [sum(src_dims[:j]) for j in range(k + 2)]
    jdim = (1 + d) * dv
    tgt_dims = [d**j * jdim for j in range(k + 1)]
    tgt_offs = [sum(tgt_dims[:j]) for j in range(k + 1)]
    out = SpMat(sum(tgt_dims), sum(src_dims))
    for j in range(k + 2):
        # footpoint chain: T_j(W) -> (x)^j p_+ (x) (W part of J^1 W), j <= k
        if j <= k:
            for m in range(d**j):
                for s in range(dv):
                    out.set(
                        tgt_offs[j] + m * jdim + s,
                        src_offs[j] + m * dv + s,
                        1,
                    )
        # tensor chain: T_j(W) = (x)^{j-1} p_+ (x) (p_+ (x) W part), j >= 1
        if 1 <= j:
            for mprime in range(d ** (j - 1)):
                for a in range(d):
                    for s in range(dv):
                        row = tgt_offs[j - 1] + mprime * jdim + dv + a * dv + s
                        col = src_offs[j] + (mprime * d + a) * dv + s
                        out.set(row, col, out.get(row, col) + 1)
    return out


def reference_splitter(gs, maps) -> SpMat:
    """The composite Jbar^r(E/E^1) -> E of L_1..L_r, stage by stage: stage j
    is Jbar^{r-j}(L_j) o (Jbar^{r-j+1}(E/E^j) in Jbar^{r-j}(J^1(E/E^j)))."""
    g = gs.cc.g
    r = len(maps)
    composite = None
    for j in range(1, r + 1):
        k = r - j
        stage = jbar_of_map(g, maps[j - 1].mat, k) @ chain_embedding(
            g, gs.quotient(j).dim, k
        )
        composite = stage if composite is None else stage @ composite
    return composite
