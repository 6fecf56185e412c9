"""The irreducible module built one candidate word at a time: a reference
for `artifact.repmod.build_irrep`.

This is the construction `build_irrep` used before it built each weight
space from one contravariant Gram. Its vectors are words in the lowering
generators acting on the highest weight vector, and ``_WordCalc`` evaluates
their Shapovalov pairings by commuting raising generators through, memoised
per word. A candidate word f_i . w joins the basis of its weight space when
the Schur complement of its pairing against the words kept so far is
nonzero, each rejected word is expressed against that Gram with one solve,
the coordinates of any word are resolved recursively through its tail, and
e_i is read off ``raise_word``. The matrices are collected entry by entry
and built with ``SpMat.from_entries``. The tests check that both
constructions give equal modules.

``highest_weight_vectors`` is the search `decompose_completely_reducible`
made before it took one kernel of the whole module: on each weight mu, the
kernel of the uncrossed raisings e_i sliced from mu to mu + alpha_i.

``tensor`` builds m1 (x) m2 with every action stored as one matrix, the
Kronecker sum A_1 (x) 1 + 1 (x) A_2. The pipeline never builds a tensor
module: the cochain complex places its Kronecker sums as assembler blocks
(`artifact.linalg.kron_blocks`). The tests compare against it.
"""

from __future__ import annotations

from artifact.linalg import QONE, QZERO, SpMat, kron_blocks
from artifact.repmod import (
    MAX_MODULE_DIM,
    DimensionOverBudget,
    GModule,
    ModuleNotCertified,
    PModule,
    positions_by_weight,
    tensor_weights,
)
from artifact.rootspace import RootSystem, Weight, weyl_dimension


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
    """Irreducible module of highest weight lam, one candidate word at a time."""
    return build_irrep_words(rs, lam, max_dim)[0]


def build_irrep_words(rs: RootSystem, lam: Weight,
                      max_dim: int = MAX_MODULE_DIM) -> tuple[GModule, tuple[tuple, ...]]:
    """The module of `build_irrep` and its basis words, in basis order."""
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
                    rv = SpMat.from_dense([[v] for v in row])
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

    f_mats = [{} for _ in range(n)]
    e_mats = [{} for _ in range(n)]
    h_mats = [{} for _ in range(n)]
    alpha_w = [
        tuple(rs.cartan[j][i] for j in range(n)) for i in range(n)
    ]  # alpha_i in fundamental coordinates
    for k, w in enumerate(words):
        mu = weights[k]
        for i in range(n):
            h_mats[i][k, k] = mu[i]
            low = tuple(a - b for a, b in zip(mu, alpha_w[i]))
            if low in offset:
                for r, v in global_coords((i,) + w, low).items():
                    f_mats[i][r, k] = v
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
                    e_mats[i][r, k] = v
    gram = {}
    for mu, cur in basis_by_weight.items():
        off = offset[mu]
        G = gram_by_weight[mu]
        for a in range(len(cur)):
            for b in range(len(cur)):
                gram[off + a, off + b] = G[a][b]
    module = GModule(
        rs=rs,
        lam=tuple(lam),
        dim=total,
        weights=tuple(weights),
        e_mats=tuple(SpMat.from_entries(total, total, m) for m in e_mats),
        f_mats=tuple(SpMat.from_entries(total, total, m) for m in f_mats),
        h_mats=tuple(SpMat.from_entries(total, total, m) for m in h_mats),
        gram=SpMat.from_entries(total, total, gram),
    )
    return module, tuple(words)


def tensor(m1: PModule, m2: PModule) -> PModule:
    """m1 (x) m2, basis row-major in the factors; both factors carry weights."""
    if m1.g is not m2.g:
        raise ValueError("tensor of modules over different algebras")
    common = [l for l in m1.actions if l in m2.actions]
    dim = m1.dim * m2.dim
    acts = {
        l: SpMat.assemble(dim, dim, kron_blocks((m1.actions[l], m2.dim), (m1.dim, m2.actions[l])))
        for l in common
    }
    return PModule(g=m1.g, dim=dim, actions=acts, weights=tensor_weights(m1.weights, m2.weights))


def highest_weight_vectors(m: PModule) -> dict[Weight, SpMat]:
    """For each weight mu of m with one, the canonical basis of the vectors
    of weight mu that every uncrossed e_i kills, placed in m: kernel_basis
    of the blocks of the e_i from mu to mu + alpha_i, stacked."""
    rs = m.g.rs
    by_weight = positions_by_weight(m.weights)
    out = {}
    for mu in sorted(by_weight):
        cols = by_weight[mu]
        conds = [SpMat(0, len(cols))]
        for i in m.g.par.uncrossed:
            up = tuple(a + rs.cartan[j][i - 1] for j, a in enumerate(mu))
            e = m.actions[("e", tuple(int(i - 1 == j) for j in range(rs.rank)))]
            conds.append(e.submatrix(by_weight.get(up, []), cols))
        ker = SpMat.vstack(conds).kernel_basis()
        if ker.ncols:
            out[mu] = ker.place_rows(cols, m.dim)
    return out
