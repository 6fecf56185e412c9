"""Finite dimensional modules: irreducibles, contravariant forms, functors.

The irreducible V(lam) is built one weight space at a time, layer by layer
in the depth of the weight below lam, from a highest weight vector v with
<v, v> = 1. A built weight space V_mu keeps its basis, its contravariant
Gram G_mu and the blocks E_i^mu: V_mu -> V_{mu+alpha_i} of the raising
generators. The candidates of a weight nu are the blocks f_i V_mu, one for
each weight mu = nu + alpha_i of the last layer, in that layer's order; they
span V_nu. Their pairing P is read off the layers already built:
contravariance, <f_i x, z> = <x, e_i z>, and [e_i, f_j] = delta_ij h_i give,
for x in V_mu_a and y in V_mu_b,

    <f_i x, f_j y> = <e_j x, e_i y> + delta_ij <mu_a, alpha_i^vee> <x, y>,

so the block of P is (E_j^mu_a)^T G_{mu_a+alpha_j} E_i^mu_b +
delta_ij <mu_a, alpha_i^vee> G_mu_a, the first term absent when mu_a +
alpha_j is not a weight. (E_j^mu_a)^T G_{mu_a+alpha_j} is a block of the
pairing of mu_a, so P is one assembly of product blocks, and it is symmetric
by construction.

The form is nondegenerate on V(lam), so the columns of P have exactly the
linear relations of the candidates, and the basis of V_nu is
``P.independent_columns()``, the lexicographically first maximal independent
candidates. The form is positive definite for dominant integral lam (Kac,
*Infinite-dimensional Lie algebras*, Thm 11.7), so this is the basis a
greedy choice by nonzero Schur complements gives. G_nu = P[keep, keep] is
certified nonsingular by its rank; for a symmetric P that always holds, so
the check guards the recursion, and a wrong block of an earlier layer shows
as a singular G_nu or a basis off the Weyl dimension. One
``G_nu.solve(P[keep, :])`` gives the f_i into V_nu, and contravariance,
G_{nu+alpha_i} E_i^nu = P[cols_i, keep], gives each E_i^nu with one solve.
The Gram of V is the block diagonal of the G_nu. No word in the f_i and no
Verma basis is ever written down.

PModule is the common currency downstream: a space with exact action matrices
keyed by Chevalley basis labels and, when something downstream reads them,
the weights of its coordinates and a contravariant Gram. The E-grade of a
coordinate is not stored: E lies in the Cartan, so it acts on a vector of
weight mu by ``g.e_eigenvalue(mu)``, the one home of the grade.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterator

from .gradedla import GradedLieAlgebra, Label, action_from_simples
from .linalg import LinAlgError, SpMat
from .rootspace import (
    RootSystem,
    Weight,
    dominant_representative_for,
    weyl_dimension,
)


MAX_MODULE_DIM = 500  # default budget on dim V
MAX_CHAIN_DIM = 20000  # default budget on the largest dim C^n = C(dim p_+, n) dim V


class DimensionOverBudget(Exception):
    """Predicted dimension exceeds the requested cap."""


class NotCompletelyReducibleInput(Exception):
    """Module cannot be certified completely reducible over g_0."""


class ModuleNotCertified(Exception):
    """A module failed a structural certificate (the Weyl dimension count,
    the closure of p_+ under p, an invariant span)."""


class GModule:
    """Irreducible g-module in a weight basis, grouped by weight; ``e_mats``
    are the simple raising operators."""

    def __init__(self, rs: RootSystem, lam: Weight, dim: int, weights: tuple[Weight, ...],
                 e_mats: tuple[SpMat, ...], f_mats: tuple[SpMat, ...],
                 h_mats: tuple[SpMat, ...], gram: SpMat):
        self.rs, self.lam, self.dim, self.weights = rs, lam, dim, weights
        self.e_mats, self.f_mats, self.h_mats, self.gram = e_mats, f_mats, h_mats, gram

    def __eq__(self, other) -> bool:
        return type(other) is GModule and vars(self) == vars(other)


def build_irrep(rs: RootSystem, lam: Weight, max_dim: int = MAX_MODULE_DIM) -> GModule:
    """Irreducible module of highest weight lam; raises NonDominant or
    DimensionOverBudget before doing any real work.

    Weight spaces are built layer by layer, each from one pairing matrix of
    its candidates, read off the layers before it (module docstring). Each
    G_nu is certified nonsingular by its rank, and the basis against the
    Weyl dimension."""
    total = weyl_dimension(rs, lam)  # validates dominance
    if total > max_dim:
        raise DimensionOverBudget(
            f"dim V({tuple(lam)}) = {total} exceeds budget {max_dim}"
        )
    n = rs.rank
    alpha = [tuple(rs.cartan[j][i] for j in range(n)) for i in range(n)]  # fundamental coords
    top = tuple(lam)
    weights: list[Weight] = [top]
    offset = {top: 0}
    grams = {top: SpMat.identity(1)}
    # (mu, i) -> (E_i^mu, (E_i^mu)^T G_{mu+alpha_i}) where mu + alpha_i is a weight
    raising: dict[tuple[Weight, int], tuple[SpMat, SpMat]] = {}
    f_blocks: list[list[tuple]] = [[] for _ in range(n)]
    e_blocks: list[list[tuple]] = [[] for _ in range(n)]
    layer = [top]
    while layer:
        # the candidates of each weight: a block (mu, i), f_i on all of V_mu,
        # for each weight mu of the last layer
        cands: dict[Weight, list[tuple[Weight, int]]] = {}
        for mu in layer:
            for i in range(n):
                cands.setdefault(tuple(x - y for x, y in zip(mu, alpha[i])), []).append((mu, i))
        layer = []
        for nu in sorted(cands):
            blocks = cands[nu]
            starts = [0, *accumulate(grams[mu].nrows for mu, _ in blocks)]
            pieces = []  # the blocks of P, as in the module docstring
            for sa, (ma, i) in zip(starts, blocks):
                for sb, (mb, j) in zip(starts, blocks):
                    up = raising.get((ma, j))
                    if up is not None:
                        pieces.append((sa, sb, 1, (up[1], raising[mb, i][0])))
                    if i == j:  # then ma == mb
                        pieces.append((sa, sb, ma[i], grams[ma]))
            P = SpMat.assemble(starts[-1], starts[-1], pieces)
            keep = P.independent_columns()
            if not keep:
                continue
            G = P.submatrix(keep, keep)
            if G.rank() != len(keep):
                raise ModuleNotCertified(f"contravariant Gram of weight {nu} is singular")
            # the coordinates of every candidate in the kept basis
            X = G.solve(P.gather_rows(keep))
            here = len(weights)
            for (mu, i), s, t in zip(blocks, starts, starts[1:]):
                cols = list(range(s, t))
                E = grams[mu].solve(P.submatrix(cols, keep))
                raising[nu, i] = (E, P.submatrix(keep, cols))
                f_blocks[i].append((here, offset[mu], 1, X.select_columns(cols)))
                e_blocks[i].append((offset[mu], here, 1, E))
            offset[nu] = here
            grams[nu] = G
            weights.extend([nu] * len(keep))
            layer.append(nu)
            if len(weights) > total:
                raise ModuleNotCertified("basis exceeded Weyl dimension")
    if len(weights) != total:
        raise ModuleNotCertified(f"basis has {len(weights)} vectors, Weyl dimension is {total}")
    return GModule(
        rs=rs,
        lam=top,
        dim=total,
        weights=tuple(weights),
        e_mats=tuple(SpMat.assemble(total, total, blocks) for blocks in e_blocks),
        f_mats=tuple(SpMat.assemble(total, total, blocks) for blocks in f_blocks),
        h_mats=tuple(SpMat.diagonal(mu[i] for mu in weights) for i in range(n)),
        gram=SpMat.block_diag(list(grams.values())),
    )


class PModule:
    """Space with exact p-action (and optionally g_-), and optionally the
    weight of each coordinate and a contravariant Gram. A coordinate of
    weight mu has E-grade ``g.e_eigenvalue(mu)``."""

    def __init__(self, g: GradedLieAlgebra, dim: int, actions: dict[Label, SpMat],
                 weights: tuple[Weight, ...] | None = None, gram: SpMat | None = None):
        self.g, self.dim, self.actions = g, dim, actions
        self.weights, self.gram = weights, gram

    def has_gminus(self) -> bool:
        return any(l[0] == "f" and self.g.grade_of(l) < 0 for l in self.actions)


def positions_by_weight(weights) -> dict[Weight, list[int]]:
    """The coordinate positions of each weight, in order."""
    out: dict[Weight, list[int]] = {}
    for k, w in enumerate(weights):
        out.setdefault(w, []).append(k)
    return out


def restrict_to_parabolic(m: GModule, g: GradedLieAlgebra) -> PModule:
    """GModule as PModule: all Chevalley labels act."""
    acts = action_from_simples(g, list(m.e_mats), list(m.f_mats), list(m.h_mats))
    return PModule(g=g, dim=m.dim, actions=acts, weights=m.weights, gram=m.gram)


def tensor_weights(w1, w2) -> tuple[Weight, ...]:
    """The weight of each coordinate of a tensor product, basis row-major in
    the factors, from the weights ``w1`` and ``w2`` of the two factors."""
    return tuple(tuple(x + y for x, y in zip(wa, wb)) for wa in w1 for wb in w2)


class IrrepLabel:
    """One irreducible g_0-component: dual-rendered label, E-eigenvalue,
    dimension, and its embedding. Each appears once in H^n (Kostant, Ann.
    Math. 74, 1961), so a label names one component."""

    def __init__(self, label: Weight, e_eigenvalue, dim: int, embedding: SpMat):
        self.label, self.e_eigenvalue, self.dim = label, e_eigenvalue, dim
        self.embedding = embedding


def action_on_span(basis: SpMat, images: SpMat,
                   labels: list[Label]) -> dict[Label, SpMat]:
    """The matrix of each labelled action on the span of the columns of
    basis, an invariant subspace: X with A basis = basis X, from ``images``,
    the A basis of each label side by side (basis.ncols columns each, in
    the order of ``labels``). One elimination of the basis against every
    image. An image that leaves the span raises ModuleNotCertified."""
    m = basis.ncols
    try:
        solved = basis.solve(images)
    except LinAlgError as exc:
        raise ModuleNotCertified(
            f"an action moves a basis of {m} vectors off its span"
        ) from exc
    return {lab: solved.select_columns(list(range(t * m, (t + 1) * m)))
            for t, lab in enumerate(labels)}


def layered_closure(seeds: SpMat, ops: list[tuple[Callable[[SpMat], SpMat], int]]
                    ) -> Iterator[tuple[int, SpMat]]:
    """The span of the columns of seeds under the ops, layer by layer:
    yields (j, basis) for each nonempty layer, j increasing. The seeds are
    layer 0, an op (apply, s), s >= 1, sends layer j into layer j + s, where
    apply(basis) is A @ basis for the op's matrix A (which the caller may
    place as blocks and never build), and layer j is a column basis of the
    images landing in it, one product per op and layer, taken only when the
    next layer is asked for.

    The layers are independent when the seeds lie in one grade of a grading
    that each op raises by its s, for then layer j lies in grade j; the
    callers certify that. Layers of more columns in all than seeds has rows
    raise ModuleNotCertified, so the loop ends even if an op is not
    nilpotent."""
    pending: dict[int, list[SpMat]] = {0: [seeds]}
    total = 0
    while pending:
        j = min(pending)
        basis = SpMat.hstack(pending.pop(j)).column_space_basis()
        if not basis.ncols:
            continue
        total += basis.ncols
        if total > seeds.nrows:
            raise ModuleNotCertified(
                f"closure layers of {total} columns overlap in dimension {seeds.nrows}"
            )
        yield j, basis
        for apply, s in ops:
            img = apply(basis)
            if not img.is_zero():
                pending.setdefault(j + s, []).append(img)


def decompose_completely_reducible(m: PModule) -> list[IrrepLabel]:
    """Decomposition over g_0 into irreducibles of multiplicity one, in a
    deterministic order (E-eigenvalue, then label lex). Labels are rendered
    in the dual convention: the component with uncrossed-highest weight mu
    is labeled by the uncrossed-dominant representative of -mu.

    The highest weight vectors are one kernel: ``kernel_basis`` of the
    uncrossed simple raisings e_i stacked, on the whole module. Each e_i
    sends weight mu to mu + alpha_i, so every row of the stack lies on the
    columns of one weight, the row space is the direct sum of the weights'
    row spaces, and the unique RREF is the union of theirs. So the canonical
    kernel vectors are exactly those of each weight's own kernel. Kostant's
    theorem makes H^n multiplicity free (Ann. Math. 74, 1961), so each
    weight has at most one: a vector over two weights, or a second vector
    on a weight, raises NotCompletelyReducibleInput.

    Each highest weight vector is closed under the uncrossed simple
    lowerings by `layered_closure`: f_i lowers the weight by alpha_i, so
    layer j holds the weights j simple roots below mu, and the layers of
    one closure are independent. The closures are certified independent,
    and to span the module, by one rank of their columns side by side."""
    if m.weights is None:
        raise NotCompletelyReducibleInput("module carries no weight basis")
    g = m.g
    rs = g.rs
    uncrossed = g.par.uncrossed
    simple = {i: tuple(int(i - 1 == j) for j in range(rs.rank)) for i in uncrossed}
    lowerings = [(m.actions[("f", simple[i])].__matmul__, 1) for i in uncrossed]
    # the highest weight vectors: one kernel of the stacked raisings, read by weight
    ker = SpMat.vstack([SpMat(0, m.dim)] + [m.actions[("e", simple[i])]
                                            for i in uncrossed]).kernel_basis()
    tops: dict[Weight, dict] = {}
    for c in range(ker.ncols):
        top = ker.col_dict(c)
        mus = {m.weights[i] for i in top}
        if len(mus) != 1:
            raise NotCompletelyReducibleInput(
                f"a highest weight vector spans the weights {sorted(mus)}"
            )
        mu = mus.pop()
        if mu in tops:
            raise NotCompletelyReducibleInput(
                f"weight {mu} has more than one highest weight vector"
            )
        tops[mu] = top
    out: list[IrrepLabel] = []
    for mu in sorted(tops):
        layers = layered_closure(SpMat.from_columns(m.dim, [tops[mu]]), lowerings)
        embedding = SpMat.hstack([b for _, b in layers])
        label = dominant_representative_for(rs, uncrossed, tuple(-x for x in mu))
        out.append(IrrepLabel(tuple(label), g.e_eigenvalue(mu), embedding.ncols, embedding))
    every = SpMat.hstack([SpMat(m.dim, 0)] + [c.embedding for c in out])
    rank = every.rank()
    if rank != m.dim or every.ncols != m.dim:
        raise NotCompletelyReducibleInput(
            f"isotypic closures of {every.ncols} columns span {rank} of {m.dim} dimensions"
        )
    out.sort(key=lambda c: (c.e_eigenvalue, c.label))
    return out
