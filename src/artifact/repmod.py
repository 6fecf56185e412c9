"""Finite dimensional modules: irreducibles, contravariant forms, functors.

Irreducibles are built from words in the lowering generators acting on a
highest weight vector. The contravariant (Shapovalov) pairing of two words is
evaluated by commuting raising generators through, and a word joins the basis
of its weight space exactly when it enlarges the rank of the contravariant
Gram there; expressing rejected words against that Gram realizes the radical
quotient without ever writing down a Verma basis.

PModule is the common currency downstream: a space with exact action matrices
keyed by Chevalley basis labels, rational E-grades, and (when meaningful) full
weights and a contravariant Gram.
"""

from __future__ import annotations

from .gradedla import GradedLieAlgebra, Label, action_from_simples
from .linalg import QONE, QZERO, SpMat, kron_blocks
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
        """e_i . word as a formal combination of shorter words."""
        key = (i, word)
        hit = self._ememo.get(key)
        if hit is not None:
            return hit
        if not word:
            out: dict[tuple, int] = {}
        else:
            j, rest = word[0], word[1:]
            out = {}
            if i == j:
                c = self.weight(rest)[i]
                if c:
                    out[rest] = c
            for w, c in self.raise_word(i, rest).items():
                k = (j,) + w
                s = out.get(k, 0) + c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        self._ememo[key] = out
        return out

    def pair(self, w1: tuple, w2: tuple) -> int:
        """Contravariant pairing <w1 . v, w2 . v>, normalized <v,v> = 1."""
        if len(w1) != len(w2):
            return 0
        if not w1:
            return 1
        key = (w1, w2)
        hit = self._pmemo.get(key)
        if hit is not None:
            return hit
        i, rest = w1[0], w1[1:]
        total = 0
        for w, c in self.raise_word(i, w2).items():
            total += c * self.pair(rest, w)
        self._pmemo[key] = total
        return total


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


def _resolve(word: tuple, wc, basis_by_weight: dict, coords: dict) -> list:
    """Coordinates of any word in its weight-space basis (zero vector when
    the weight space is absent), memoised in ``coords``. Words reached by
    deleting letters from a basis word were not always direct candidates,
    hence the recursion. A module-level function, not a closure: a closure
    that calls itself is a reference cycle, which would keep ``coords`` alive
    until the cyclic collector runs."""
    mu = wc.weight(word)
    if not basis_by_weight.get(mu):
        return []
    hit = coords.get(word)
    if hit is not None:
        return hit
    j, rest = word[0], word[1:]
    rvec = _resolve(rest, wc, basis_by_weight, coords)
    nu = wc.weight(rest)
    out = [QZERO] * len(basis_by_weight[mu])
    for k, c in enumerate(rvec):
        if not c:
            continue
        child = coords[(j,) + basis_by_weight[nu][k]]
        for t, v in enumerate(child):
            out[t] += c * v
    coords[word] = out
    return out


def build_irrep(rs: RootSystem, lam: Weight, max_dim: int = MAX_MODULE_DIM) -> GModule:
    """Irreducible module of highest weight lam; raises NonDominant or
    DimensionOverBudget before doing any real work."""
    total = weyl_dimension(rs, lam)  # validates dominance
    if total > max_dim:
        raise DimensionOverBudget(
            f"dim V({tuple(lam)}) = {total} exceeds budget {max_dim}"
        )
    n = rs.rank
    wc = _WordCalc(rs, lam)

    basis_by_weight: dict[Weight, list[tuple]] = {tuple(lam): [()]}
    gram_by_weight: dict[Weight, list[list]] = {tuple(lam): [[QONE]]}
    coords: dict[tuple, list] = {(): [QONE]}
    layer = [()]
    count = 1
    while layer:
        # candidates (i,)+w for w in the previous layer, grouped by weight
        cands: dict[Weight, list[tuple]] = {}
        for w in layer:
            for i in range(n):
                nw = (i,) + w
                cands.setdefault(wc.weight(nw), []).append(nw)
        layer = []
        for mu in sorted(cands):
            for w in cands[mu]:
                if w in coords:
                    continue
                cur = basis_by_weight.setdefault(mu, [])
                G = gram_by_weight.setdefault(mu, [])
                row = [wc.pair(w, b) for b in cur]
                diag = wc.pair(w, w)
                if cur:
                    Gm = SpMat.from_dense(G)
                    rv = SpMat.column(row)
                    x = Gm.solve(rv)
                    xs = [x.get(k, 0) for k in range(len(cur))]
                    schur = diag - sum(a * b for a, b in zip(row, xs))
                else:
                    xs = []
                    schur = diag
                if schur:
                    for k, r in enumerate(G):
                        r.append(row[k])
                    G.append(row + [diag])
                    cur.append(w)
                    coords[w] = [QZERO] * (len(cur) - 1) + [QONE]
                    for ww in cur[:-1]:
                        coords[ww] = coords[ww] + [QZERO]
                    # previously expressed words at mu gain a zero coordinate
                    for ww, vec in coords.items():
                        if wc.weight(ww) == mu and len(vec) == len(cur) - 1 and ww not in cur:
                            coords[ww] = vec + [QZERO]
                    layer.append(w)
                    count += 1
                    if count > total:
                        raise ModuleNotCertified("basis exceeded Weyl dimension")
                else:
                    coords[w] = xs
    if count != total:
        raise ModuleNotCertified(f"basis has {count} words, Weyl dimension is {total}")
    basis_by_weight = {mu: ws for mu, ws in basis_by_weight.items() if ws}

    # all words in one weight space share their length, which is the depth
    weight_order = sorted(
        basis_by_weight, key=lambda mu: (len(basis_by_weight[mu][0]), mu)
    )
    words: list[tuple] = []
    weights: list[Weight] = []
    offset: dict[Weight, int] = {}
    for mu in weight_order:
        offset[mu] = len(words)
        for w in basis_by_weight[mu]:
            words.append(w)
            weights.append(mu)
    def global_coords(word: tuple, mu: Weight) -> dict[int, object]:
        vec = _resolve(word, wc, basis_by_weight, coords)
        off = offset[mu]
        return {off + k: v for k, v in enumerate(vec) if v}

    f_mats = [SpMat(total, total) for _ in range(n)]
    e_mats = [SpMat(total, total) for _ in range(n)]
    h_mats = [SpMat(total, total) for _ in range(n)]
    alpha_w = [
        tuple(rs.cartan[j][i] for j in range(n)) for i in range(n)
    ]  # alpha_i in fundamental coordinates
    for k, w in enumerate(words):
        mu = weights[k]
        for i in range(n):
            h_mats[i].set(k, k, mu[i])
            low = tuple(a - b for a, b in zip(mu, alpha_w[i]))
            if low in offset:
                for r, v in global_coords((i,) + w, low).items():
                    f_mats[i].set(r, k, v)
            up = tuple(a + b for a, b in zip(mu, alpha_w[i]))
            if up in offset:
                acc: dict[int, object] = {}
                for ww, c in wc.raise_word(i, w).items():
                    for r, v in global_coords(ww, up).items():
                        s = acc.get(r, QZERO) + c * v
                        if s:
                            acc[r] = s
                        else:
                            acc.pop(r, None)
                for r, v in acc.items():
                    e_mats[i].set(r, k, v)
    gram = SpMat(total, total)
    for mu, cur in basis_by_weight.items():
        off = offset[mu]
        G = gram_by_weight[mu]
        for a in range(len(cur)):
            for b in range(len(cur)):
                gram.set(off + a, off + b, G[a][b])
    return GModule(
        rs=rs,
        lam=tuple(lam),
        dim=total,
        words=tuple(words),
        weights=tuple(weights),
        e_mats=tuple(e_mats),
        f_mats=tuple(f_mats),
        h_mats=tuple(h_mats),
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
