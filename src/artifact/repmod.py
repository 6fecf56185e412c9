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

from dataclasses import dataclass, field
from itertools import combinations

from .gradedla import GradedLieAlgebra, Label, action_from_simples
from .linalg import Q, QONE, QZERO, SpMat
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
    """Shapovalov evaluation on words of lowering operators."""

    def __init__(self, rs: RootSystem, lam: Weight):
        self.rs = rs
        self.lam = lam
        self._ememo: dict[tuple[int, tuple], dict] = {}
        self._pmemo: dict[tuple[tuple, tuple], object] = {}

    def weight(self, word: tuple) -> Weight:
        out = list(self.lam)
        for i in word:
            for j in range(self.rs.rank):
                out[j] -= self.rs.cartan[j][i]
        return tuple(out)

    def raise_word(self, i: int, word: tuple) -> dict:
        """e_i . word as a formal combination of shorter words."""
        key = (i, word)
        hit = self._ememo.get(key)
        if hit is not None:
            return hit
        if not word:
            out: dict[tuple, object] = {}
        else:
            j, rest = word[0], word[1:]
            out = {}
            if i == j:
                c = Q(self.weight(rest)[i])
                if c:
                    out[rest] = c
            for w, c in self.raise_word(i, rest).items():
                k = (j,) + w
                s = out.get(k, QZERO) + c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        self._ememo[key] = out
        return out

    def pair(self, w1: tuple, w2: tuple):
        """Contravariant pairing <w1 . v, w2 . v>, normalized <v,v> = 1."""
        if len(w1) != len(w2):
            return QZERO
        if not w1:
            return QONE
        key = (w1, w2)
        hit = self._pmemo.get(key)
        if hit is not None:
            return hit
        i, rest = w1[0], w1[1:]
        total = QZERO
        for w, c in self.raise_word(i, w2).items():
            total += c * self.pair(rest, w)
        self._pmemo[key] = total
        return total


@dataclass(frozen=True)
class GModule:
    """Irreducible g-module in a word basis grouped by weight."""

    rs: RootSystem
    lam: Weight
    dim: int
    words: tuple[tuple, ...]
    weights: tuple[Weight, ...]
    e_mats: tuple[SpMat, ...]  # simple raising operators
    f_mats: tuple[SpMat, ...]
    h_mats: tuple[SpMat, ...]
    gram: SpMat = field(repr=False)


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
    def resolve(word: tuple) -> list:
        """Coordinates of any word in its weight-space basis (zero vector when
        the weight space is absent). Words reached by deleting letters from a
        basis word were not always direct candidates, hence the recursion."""
        mu = wc.weight(word)
        if not basis_by_weight.get(mu):
            return []
        hit = coords.get(word)
        if hit is not None:
            return hit
        j, rest = word[0], word[1:]
        rvec = resolve(rest)
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

    def global_coords(word: tuple, mu: Weight) -> dict[int, object]:
        vec = resolve(word)
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


@dataclass
class PModule:
    """Space with exact p-action (and optionally g_-), E-grades, weights."""

    g: GradedLieAlgebra
    dim: int
    e_grades: tuple
    actions: dict[Label, SpMat] = field(repr=False)
    weights: tuple[Weight, ...] | None = None
    gram: SpMat | None = field(default=None, repr=False)

    def action(self, label: Label) -> SpMat:
        return self.actions[label]

    def has_gminus(self) -> bool:
        return any(l[0] == "f" and self.g.grade_of(l) < 0 for l in self.actions)


def restrict_to_parabolic(m: GModule, g: GradedLieAlgebra) -> PModule:
    """GModule as PModule: all Chevalley labels act, E-grades are rational."""
    acts = action_from_simples(g, list(m.e_mats), list(m.f_mats), list(m.h_mats))
    E = g.grading_element()
    e_grades = tuple(
        sum((E.get(("h", j), QZERO)) * mu[j] for j in range(g.rs.rank))
        for mu in m.weights
    )
    return PModule(
        g=g,
        dim=m.dim,
        e_grades=e_grades,
        actions=acts,
        weights=m.weights,
        gram=m.gram,
    )


def pplus_module(g: GradedLieAlgebra) -> PModule:
    """p_+ with the restricted adjoint action of p."""
    roots = g.pplus_roots()
    idx = {r: k for k, r in enumerate(roots)}
    acts: dict[Label, SpMat] = {}
    for lab in g.p_labels():
        A = SpMat(len(roots), len(roots))
        for k, r in enumerate(roots):
            for out_lab, c in g.bracket_labels(lab, ("e", r)).items():
                if out_lab[0] != "e" or out_lab[1] not in idx:
                    raise ModuleNotCertified(f"[{lab}, e_{r}] leaves p_+")
                A.set(idx[out_lab[1]], k, c)
        acts[lab] = A
    return PModule(
        g=g,
        dim=len(roots),
        e_grades=tuple(Q(g.grade_of(("e", r))) for r in roots),
        actions=acts,
        weights=tuple(g.rs.root_to_weight(r) for r in roots),
    )


def tensor_blocks(a1: SpMat, a2: SpMat, off: int = 0) -> list[tuple]:
    """The action X (x) 1 + 1 (x) X on m1 (x) m2 (row-major), for X acting
    by a1 on m1 and by a2 on m2, as `SpMat.assemble` blocks placed at
    (off, off): a2 on each diagonal block, and c times the identity at block
    (i, j) for each entry c of a1."""
    n2 = a2.nrows
    unit = SpMat.identity(n2)
    blocks = [(off + i * n2, off + i * n2, 1, a2) for i in range(a1.nrows)]
    blocks.extend((off + i * n2, off + j * n2, c, unit) for i, j, c in a1.entries())
    return blocks


def tensor(m1: PModule, m2: PModule) -> PModule:
    """m1 (x) m2, basis row-major in the factors."""
    if m1.g is not m2.g:
        raise ValueError("tensor of modules over different algebras")
    common = [l for l in m1.actions if l in m2.actions]
    dim = m1.dim * m2.dim
    acts = {
        l: SpMat.assemble(dim, dim, tensor_blocks(m1.actions[l], m2.actions[l]))
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


def dual_module(m: PModule) -> PModule:
    """Dual basis; X acts by -X^T."""
    acts = {l: -(A.transpose()) for l, A in m.actions.items()}
    return PModule(
        g=m.g,
        dim=m.dim,
        e_grades=tuple(-x for x in m.e_grades),
        actions=acts,
        weights=None if m.weights is None else tuple(
            tuple(-x for x in w) for w in m.weights
        ),
    )


def exterior_power(m: PModule, n: int) -> PModule:
    """Lambda^n m on increasing index tuples in lex order."""
    if not 0 <= n <= m.dim:
        raise ValueError(f"exterior power {n} of a {m.dim}-dimensional module")
    tuples = list(combinations(range(m.dim), n))
    tidx = {t: k for k, t in enumerate(tuples)}
    unit = SpMat.identity(1)
    acts: dict[Label, SpMat] = {}
    for lab, A in m.actions.items():
        terms = []
        for k, t in enumerate(tuples):
            for pos in range(n):
                col = A.col_dict(t[pos])
                for i, v in col.items():
                    if i in t and i != t[pos]:
                        continue
                    lst = list(t)
                    lst[pos] = i
                    sign, srt = _sort_sign(lst)
                    if sign == 0:
                        continue
                    terms.append((tidx[tuple(srt)], k, sign * v, unit))
        acts[lab] = SpMat.assemble(len(tuples), len(tuples), terms)
    e_grades = tuple(sum((m.e_grades[i] for i in t), QZERO) for t in tuples)
    weights = None
    if m.weights is not None:
        rank = m.g.rs.rank
        weights = tuple(
            tuple(sum(m.weights[i][j] for i in t) for j in range(rank))
            for t in tuples
        )
    return PModule(
        g=m.g, dim=len(tuples), e_grades=e_grades, actions=acts, weights=weights,
    )


def _sort_sign(lst: list[int]) -> tuple[int, list[int]]:
    """Insertion sort sign; 0 on duplicates."""
    sign = 1
    out = list(lst)
    for a in range(1, len(out)):
        b = a
        while b > 0 and out[b - 1] > out[b]:
            out[b - 1], out[b] = out[b], out[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(out)):
        if out[a - 1] == out[a]:
            return 0, out
    return sign, out


@dataclass(frozen=True)
class IrrepLabel:
    """One isotypic g_0-component: dual-rendered label, E-eigenvalue,
    per-copy dimension, multiplicity, and the embedding of all copies."""

    label: Weight
    e_eigenvalue: object
    dim: int
    multiplicity: int
    embedding: SpMat = field(repr=False)

    @property
    def sort_key(self):
        return (self.e_eigenvalue, self.label)


def decompose_completely_reducible(m: PModule) -> list[IrrepLabel]:
    """Isotypic decomposition over g_0, deterministic order (E-eigenvalue,
    then label lex). Labels are rendered in the dual convention: the component
    with uncrossed-highest weight mu is labeled by the uncrossed-dominant
    representative of -mu."""
    if m.weights is None:
        raise NotCompletelyReducibleInput("module carries no weight basis")
    g = m.g
    rs = g.rs
    uncrossed = g.par.uncrossed
    by_weight: dict[Weight, list[int]] = {}
    for k, w in enumerate(m.weights):
        by_weight.setdefault(w, []).append(k)
    alpha_w = {
        i: tuple(rs.cartan[j][i - 1] for j in range(rs.rank)) for i in uncrossed
    }
    comps: dict[Weight, list[dict[int, object]]] = {}
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
        for c in range(ker.ncols):
            vec = {cols[i]: v for i, v in ker.col_dict(c).items()}
            comps.setdefault(mu, []).append(vec)
    out: list[IrrepLabel] = []
    f_simple = {
        i: m.actions[("f", tuple(int(i - 1 == j) for j in range(rs.rank)))]
        for i in uncrossed
    }
    covered = 0
    for mu, vecs in sorted(comps.items()):
        emb_cols: list[dict[int, object]] = []
        per_dim = None
        for vec in vecs:
            closure = _lowering_closure(m, f_simple, vec)
            if per_dim is None:
                per_dim = len(closure)
            elif per_dim != len(closure):
                raise NotCompletelyReducibleInput("isotypic closures of unequal size")
            emb_cols.extend(closure)
        emb = SpMat.from_columns(m.dim, emb_cols)
        if emb.rank() != emb.ncols:
            raise NotCompletelyReducibleInput("overlapping isotypic closures")
        label = dominant_representative_for(rs, uncrossed, tuple(-x for x in mu))
        egr = m.e_grades[next(iter(vecs[0]))]
        out.append(
            IrrepLabel(
                label=tuple(label),
                e_eigenvalue=egr,
                dim=per_dim,
                multiplicity=len(vecs),
                embedding=emb,
            )
        )
        covered += per_dim * len(vecs)
    if covered != m.dim:
        raise NotCompletelyReducibleInput(
            f"isotypic pieces cover {covered} of {m.dim} dimensions"
        )
    out.sort(key=lambda c: c.sort_key)
    return out


def _lowering_closure(m: PModule, f_simple: dict, seed: dict) -> list[dict]:
    """Orbit of a highest weight vector under the uncrossed lowerings,
    echelon-reduced per weight space, deterministic."""
    from .linalg import EchelonSpan

    span = EchelonSpan(m.dim)
    span.add(seed)
    basis = [dict(seed)]
    frontier = [dict(seed)]
    while frontier:
        new = []
        for vec in frontier:
            for i in sorted(f_simple):
                img: dict[int, object] = {}
                A = f_simple[i]
                for k, v in vec.items():
                    for r, a in A.col_dict(k).items():
                        s = img.get(r, QZERO) + a * v
                        if s:
                            img[r] = s
                        else:
                            img.pop(r, None)
                if img and span.add(img):
                    basis.append(img)
                    new.append(img)
        frontier = new
    return basis
