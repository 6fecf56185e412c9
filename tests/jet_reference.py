"""Reference semi-holonomic jets: the equalizer-kernel construction.

Jbar^k is cut out of J^1(Jbar^{k-1}) as the kernel of the difference of the
two projections to J^1(Jbar^{k-2}), its rank is computed by exact
elimination, and every action is restricted by the products sel @ A @ iota.
Slow, but independent of the index-map certificate in ``artifact.jetcalc``,
against which the tests compare it.
"""

from __future__ import annotations

from dataclasses import dataclass

from artifact.jetcalc import jet1, truncation_matrix
from artifact.linalg import SpMat
from artifact.repmod import PModule


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
