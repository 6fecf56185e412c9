"""Reference tilde prolongations and the twisted derivative as a P-map.

In the paper these are proof devices: the twisted derivative
J^1(C^n) -> C^{n+1} is a P-homomorphism, and the splitter chain is natural
on the tilde subspaces of J^1(E/E^{i+1}), which form a tower of
P-submodules. The pipeline computes neither; the tests build them here and
check those facts on the splitters `artifact.bggcore` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from artifact.certify import CertificationFailure, certify_map
from artifact.hodge import CochainComplex
from artifact.jetcalc import PModMap, SemiHolonomicJet, prolong, semiholonomic
from artifact.linalg import LinAlgError, SpMat
from artifact.repmod import PModule
from hodge_reference import reference_level
from jet_reference import iota, jet1, jet1_map_matrix, twisted_matrix


def twisted_d_hom(cc: CochainComplex, n: int) -> PModMap:
    """The twisted-derivative homomorphism J^1(C^n) -> C^{n+1}, certified."""
    if not 0 <= n < cc.top:
        raise ValueError(f"twisted derivative needs 0 <= n < {cc.top}, got {n}")
    return certify_map(
        twisted_matrix(cc, n), jet1(reference_level(cc, n)), reference_level(cc, n + 1),
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
    ambient: PModule = field(repr=False)


def tilde_bases(gs, maps, top: int) -> list[SpMat]:
    """Bases of the tilde subspaces of J^1(E/E^{i+1}) for i = 0..top: full at
    i = 0, then the preimage of the previous one intersected with
    Ker(L_i o J^1(pi) - p)."""
    g = gs.cc.g
    d = len(g.pplus_roots)
    bases = [SpMat.identity((1 + d) * gs.quotient(1).dim)]
    for i in range(1, top + 1):
        qn = gs.quotient(i + 1)
        # pi^{i+1}_i: E/E^{i+1} -> E/E^i keeps the leading coordinates
        jpi = jet1_map_matrix(g, SpMat.identity(gs.quotient(i).dim, qn.dim))
        cond1 = _left_annihilator(bases[-1]) @ jpi
        cond2 = maps[i - 1] @ jpi - SpMat.identity(qn.dim, jpi.ncols)
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
    amb_weights = _jet1_weights(gs, amb.dim // (1 + len(amb.g.pplus_roots)))
    weights = []
    for k in range(basis.ncols):
        wset = {amb_weights[p] for p in range(amb.dim) if basis.get(p, k)}
        if len(wset) != 1:
            raise CertificationFailure(f"tilde basis vector {k} is not homogeneous")
        weights.append(wset.pop())
    mod = PModule(g=amb.g, dim=basis.ncols, actions=acts, weights=tuple(weights))
    return TildeJet(i=i, basis=basis, module=mod, ambient=amb)


def _jet1_weights(gs, cut: int) -> tuple:
    """The weight of each coordinate of J^1(E/E^i), E/E^i the first ``cut``
    coordinates of E: E/E^i's own, then one copy shifted by each p_+ root."""
    g = gs.cc.g
    ws = gs.module.weights[:cut]
    return ws + tuple(
        tuple(x + y for x, y in zip(w, g.rs.root_to_weight(r)))
        for r in g.pplus_roots for w in ws
    )


def _second_tilde(first: SpMat, jet: SemiHolonomicJet) -> SpMat:
    """Basis of the second tilde prolongation of E/E^i inside the direct-sum
    coordinates of jet = Jbar^2(E/E^i), from ``first``, the basis of the
    first one inside J^1(E/E^i)."""
    d = len(jet.V.g.pplus_roots)
    blocks = SpMat.block_diag([_left_annihilator(first)] * (1 + d))
    return (blocks @ iota(jet)).kernel_basis()


def verify_tower_containments(gs, chain, bases: list[SpMat]) -> bool:
    """J^1(L_i) o iota maps the second tilde space of E/E^i into the first
    tilde space of E/E^{i+1}, for 1 <= i <= r, with ``bases`` =
    ``tilde_bases(gs, chain.maps, gs.r)``."""
    for i in range(1, gs.r + 1):
        jet = semiholonomic(gs.quotient(i), 2)
        t_src = _second_tilde(bases[i - 1], jet)
        m = prolong(chain.maps[i - 1], jet)
        if not (_left_annihilator(bases[i]) @ (m @ t_src)).is_zero():
            return False
    return True
