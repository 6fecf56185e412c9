"""Finite dimensional modules: irreducibles, contravariant forms, functors.

The irreducible V(lam) is built from words in the lowering generators acting
on a highest weight vector v, one weight space at a time, layer by layer in
the depth of the weight below lam. The candidates of a weight nu are the
words f_i . w, w a basis word of the last layer, in that layer's order, and
they span V_nu. Their contravariant (Shapovalov) pairing P, evaluated on
words by commuting raising generators through, is a Gram matrix of these
vectors, and the form is nondegenerate on V(lam), so the columns of P have
exactly the linear relations of the candidate vectors. The basis of V_nu is
``P.independent_columns()``: the lexicographically first maximal
independent candidates. The form is moreover positive definite on V(lam) for
dominant integral lam (Kac, *Infinite-dimensional Lie algebras*, Thm 11.7),
so a candidate is independent of the earlier ones exactly when its Schur
complement against the Gram of the kept ones is nonzero: this basis is the
one a candidate-by-candidate greedy choice gives.

G_nu = P[keep, keep] is certified nonsingular by its rank (for a symmetric P
that always holds, so the check guards the pairing's symmetry), and one
``G_nu.solve(P[keep, :])`` gives the coordinates of every candidate, which
are the columns of the f_i into V_nu. The Gram of V is the block diagonal of
the G_nu, and contravariance, <e_i x, y> = <x, f_i y>, gives
e_i = Gram^-1 f_i^T Gram. No Verma basis is ever written down.

PModule is the common currency downstream: a space with exact action matrices
keyed by Chevalley basis labels, rational E-grades, and (when meaningful) full
weights and a contravariant Gram.
"""

from __future__ import annotations

from .gradedla import GradedLieAlgebra, Label, action_from_simples
from .linalg import SpMat, kron_blocks
from .rootspace import (
    RootSystem,
    Weight,
    dominant_representative_for,
    weyl_dimension,
)


MAX_MODULE_DIM = 500  # default budget on dim V


class DimensionOverBudget(Exception):
    """Predicted dimension exceeds the requested cap."""


class NotCompletelyReducibleInput(Exception):
    """Module cannot be certified completely reducible over g_0."""


class ModuleNotCertified(Exception):
    """A module failed a structural certificate (the Weyl dimension count,
    the closure of p_+ under p)."""


class _WordCalc:
    """Shapovalov evaluation on words of lowering operators. Every
    coefficient is a weight coordinate or a sum of products of them, so the
    words' combinations and pairings are computed in int."""

    def __init__(self, rs: RootSystem, lam: Weight):
        self.rs = rs
        self.lam = lam
        self._ememo: dict[tuple[int, tuple], dict[tuple, int]] = {}
        self._pmemo: dict[tuple[tuple, tuple], int] = {}
        self._wmemo: dict[tuple, Weight] = {(): tuple(lam)}

    def weight(self, word: tuple) -> Weight:
        """lam minus the simple roots of the word, memoised: a word's weight
        is its tail's, less the root of its first letter."""
        hit = self._wmemo.get(word)
        if hit is None:
            cartan = self.rs.cartan
            i = word[0]
            hit = self._wmemo[word] = tuple(
                x - cartan[j][i] for j, x in enumerate(self.weight(word[1:]))
            )
        return hit

    def raise_word(self, i: int, word: tuple) -> dict[tuple, int]:
        """e_i . word as a formal combination of shorter words. e_i commutes
        past f_j for j != i and kills v, and e_i f_i u = f_i e_i u + h_i u, so
        each letter i of the word is deleted in turn, with the coefficient
        <weight of the letters right of it, alpha_i^vee>."""
        key = (i, word)
        hit = self._ememo.get(key)
        if hit is None:
            row = self.rs.cartan[i]
            c = self.lam[i]
            out: dict[tuple, int] = {}
            for q in range(len(word) - 1, -1, -1):
                j = word[q]
                if j == i:
                    w = word[:q] + word[q + 1:]
                    out[w] = out.get(w, 0) + c
                c -= row[j]
            hit = self._ememo[key] = {w: v for w, v in out.items() if v}
        return hit

    def pair(self, w1: tuple, w2: tuple) -> int:
        """Contravariant pairing <w1 . v, w2 . v>, normalized <v,v> = 1. The
        pairing is symmetric, so the memo holds each unordered pair once."""
        if len(w1) != len(w2):
            return 0
        if not w1:
            return 1
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        memo = self._pmemo
        hit = memo.get(key)
        if hit is None:
            rest = w1[1:]
            hit = 0
            for w, c in self.raise_word(w1[0], w2).items():
                v = memo.get((rest, w) if rest <= w else (w, rest))
                hit += c * (self.pair(rest, w) if v is None else v)
            memo[key] = hit
        return hit


class GModule:
    """Irreducible g-module in a word basis grouped by weight; ``e_mats`` are
    the simple raising operators."""

    def __init__(self, rs: RootSystem, lam: Weight, dim: int, words: tuple[tuple, ...],
                 weights: tuple[Weight, ...], e_mats: tuple[SpMat, ...],
                 f_mats: tuple[SpMat, ...], h_mats: tuple[SpMat, ...], gram: SpMat):
        self.rs, self.lam, self.dim, self.words, self.weights = rs, lam, dim, words, weights
        self.e_mats, self.f_mats, self.h_mats, self.gram = e_mats, f_mats, h_mats, gram

    def __eq__(self, other) -> bool:
        return type(other) is GModule and vars(self) == vars(other)


def build_irrep(rs: RootSystem, lam: Weight, max_dim: int = MAX_MODULE_DIM) -> GModule:
    """Irreducible module of highest weight lam; raises NonDominant or
    DimensionOverBudget before doing any real work.

    Weight spaces are built layer by layer, each from one pairing matrix of
    its candidate words (module docstring). Each G_nu is certified
    nonsingular by its rank, and the basis against the Weyl dimension."""
    total = weyl_dimension(rs, lam)  # validates dominance
    if total > max_dim:
        raise DimensionOverBudget(
            f"dim V({tuple(lam)}) = {total} exceeds budget {max_dim}"
        )
    n = rs.rank
    wc = _WordCalc(rs, lam)
    words: list[tuple] = [()]
    weights: list[Weight] = [tuple(lam)]
    grams = [SpMat.identity(1)]
    f_blocks: list[list[tuple]] = [[] for _ in range(n)]
    start = 0
    while start < len(words):
        # the candidates f_i . w, w in the last layer, grouped by weight;
        # (i, k) stands for f_i applied to basis word k
        cands: dict[Weight, list[tuple[int, int]]] = {}
        for k in range(start, len(words)):
            for i in range(n):
                cands.setdefault(wc.weight((i,) + words[k]), []).append((i, k))
        start = len(words)
        for nu in sorted(cands):
            cw = [(i,) + words[k] for i, k in cands[nu]]
            m = len(cw)
            P = SpMat.from_entries(m, m, {
                (a, b): wc.pair(wa, wb) for a, wa in enumerate(cw) for b, wb in enumerate(cw)
            })
            keep = P.independent_columns()
            if not keep:
                continue
            G = P.submatrix(keep, keep)
            if G.rank() != len(keep):
                raise ModuleNotCertified(f"contravariant Gram of weight {nu} is singular")
            # the coordinates of every candidate in the kept basis; the
            # candidates f_i . w of one i are f_i on a whole weight space
            X = G.solve(P.gather_rows(keep))
            for i in range(n):
                cols = [a for a, (j, _) in enumerate(cands[nu]) if j == i]
                if cols:
                    f_blocks[i].append(
                        (len(words), cands[nu][cols[0]][1], 1, X.select_columns(cols))
                    )
            words.extend(cw[a] for a in keep)
            weights.extend([nu] * len(keep))
            grams.append(G)
            if len(words) > total:
                raise ModuleNotCertified("basis exceeded Weyl dimension")
    if len(words) != total:
        raise ModuleNotCertified(f"basis has {len(words)} words, Weyl dimension is {total}")
    gram = SpMat.block_diag(grams)
    gram_inv = gram.solve(SpMat.identity(total))
    f_mats = tuple(SpMat.assemble(total, total, blocks) for blocks in f_blocks)
    return GModule(
        rs=rs,
        lam=tuple(lam),
        dim=total,
        words=tuple(words),
        weights=tuple(weights),
        # contravariance, <e_i x, y> = <x, f_i y>
        e_mats=tuple(gram_inv @ (f.transpose() @ gram) for f in f_mats),
        f_mats=f_mats,
        h_mats=tuple(SpMat.diagonal(mu[i] for mu in weights) for i in range(n)),
        gram=gram,
    )


class PModule:
    """Space with exact p-action (and optionally g_-), E-grades, weights."""

    def __init__(self, g: GradedLieAlgebra, dim: int, e_grades: tuple,
                 actions: dict[Label, SpMat], weights: tuple[Weight, ...] | None = None,
                 gram: SpMat | None = None):
        self.g, self.dim, self.e_grades, self.actions = g, dim, e_grades, actions
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
    """GModule as PModule: all Chevalley labels act, E-grades are rational."""
    acts = action_from_simples(g, list(m.e_mats), list(m.f_mats), list(m.h_mats))
    return PModule(
        g=g,
        dim=m.dim,
        e_grades=tuple(g.e_eigenvalue(mu) for mu in m.weights),
        actions=acts,
        weights=m.weights,
        gram=m.gram,
    )


def tensor(m1: PModule, m2: PModule) -> PModule:
    """m1 (x) m2, basis row-major in the factors."""
    if m1.g is not m2.g:
        raise ValueError("tensor of modules over different algebras")
    common = [l for l in m1.actions if l in m2.actions]
    dim = m1.dim * m2.dim
    one1, one2 = SpMat.identity(m1.dim), SpMat.identity(m2.dim)
    acts = {
        l: SpMat.assemble(dim, dim, [*kron_blocks(m1.actions[l], one2),
                                     *kron_blocks(one1, m2.actions[l])])
        for l in common
    }
    e_grades = tuple(
        a + b for a in m1.e_grades for b in m2.e_grades
    )
    weights = None
    if m1.weights is not None and m2.weights is not None:
        weights = tuple(
            tuple(x + y for x, y in zip(wa, wb))
            for wa in m1.weights
            for wb in m2.weights
        )
    gram = None
    if m1.gram is not None and m2.gram is not None:
        gram = m1.gram.kron(m2.gram)
    return PModule(
        g=m1.g, dim=m1.dim * m2.dim, e_grades=e_grades, actions=acts,
        weights=weights, gram=gram,
    )


class IrrepLabel:
    """One isotypic g_0-component: dual-rendered label, E-eigenvalue,
    per-copy dimension, multiplicity, and the embedding of all copies."""

    def __init__(self, label: Weight, e_eigenvalue, dim: int, multiplicity: int,
                 embedding: SpMat):
        self.label, self.e_eigenvalue, self.dim = label, e_eigenvalue, dim
        self.multiplicity, self.embedding = multiplicity, embedding

    @property
    def sort_key(self):
        return (self.e_eigenvalue, self.label)


def layered_closure(seeds: SpMat, ops: list[tuple[SpMat, int]]) -> list[tuple[int, SpMat]]:
    """The span of the columns of seeds under the ops, layer by layer:
    (j, basis) for each nonempty layer, j increasing. The seeds are layer 0,
    an op (A, s), s >= 1, sends layer j into layer j + s, and layer j is a
    column basis of the images landing in it, one product per op and layer.

    The layers are independent when the seeds lie in one grade of a grading
    that each op raises by its s, for then layer j lies in grade j; the
    callers certify that. Layers of more columns in all than seeds has rows
    raise ModuleNotCertified, so the loop ends even if an op is not
    nilpotent."""
    layers: list[tuple[int, SpMat]] = []
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
        layers.append((j, basis))
        for A, s in ops:
            img = A @ basis
            if not img.is_zero():
                pending.setdefault(j + s, []).append(img)
    return layers


def decompose_completely_reducible(m: PModule) -> list[IrrepLabel]:
    """Isotypic decomposition over g_0, deterministic order (E-eigenvalue,
    then label lex). Labels are rendered in the dual convention: the component
    with uncrossed-highest weight mu is labeled by the uncrossed-dominant
    representative of -mu.

    Each highest weight vector is closed under the uncrossed simple
    lowerings by `layered_closure`: f_i lowers the weight by alpha_i, so
    layer j holds the weights j simple roots below mu, and the layers of
    one closure are independent. The closures of one isotypic piece are
    certified independent by the rank of their columns."""
    if m.weights is None:
        raise NotCompletelyReducibleInput("module carries no weight basis")
    g = m.g
    rs = g.rs
    uncrossed = g.par.uncrossed
    by_weight = positions_by_weight(m.weights)
    alpha_w = {
        i: tuple(rs.cartan[j][i - 1] for j in range(rs.rank)) for i in uncrossed
    }
    lowerings = [
        (m.actions[("f", tuple(int(i - 1 == j) for j in range(rs.rank)))], 1)
        for i in sorted(uncrossed)
    ]
    out: list[IrrepLabel] = []
    covered = 0
    for mu in sorted(by_weight):
        cols = by_weight[mu]
        conds: list[SpMat] = []
        for i in uncrossed:
            up = tuple(a + b for a, b in zip(mu, alpha_w[i]))
            rows = by_weight.get(up, [])
            A = m.actions[("e", tuple(int(i - 1 == j) for j in range(rs.rank)))]
            conds.append(A.submatrix(rows, cols) if rows else SpMat(0, len(cols)))
        stacked = SpMat.vstack(conds) if conds else SpMat(0, len(cols))
        ker = stacked.kernel_basis()
        if not ker.ncols:
            continue
        closures = []
        for c in range(ker.ncols):
            top = {cols[i]: v for i, v in ker.col_dict(c).items()}
            layers = layered_closure(SpMat.from_columns(m.dim, [top]), lowerings)
            closures.append(SpMat.hstack([b for _, b in layers]))
        per_dim = closures[0].ncols
        if any(c.ncols != per_dim for c in closures):
            raise NotCompletelyReducibleInput("isotypic closures of unequal size")
        emb = SpMat.hstack(closures)
        if emb.rank() != emb.ncols:
            raise NotCompletelyReducibleInput("overlapping isotypic closures")
        label = dominant_representative_for(rs, uncrossed, tuple(-x for x in mu))
        out.append(
            IrrepLabel(
                label=tuple(label),
                e_eigenvalue=m.e_grades[cols[0]],
                dim=per_dim,
                multiplicity=ker.ncols,
                embedding=emb,
            )
        )
        covered += emb.ncols
    if covered != m.dim:
        raise NotCompletelyReducibleInput(
            f"isotypic pieces cover {covered} of {m.dim} dimensions"
        )
    out.sort(key=lambda c: c.sort_key)
    return out
