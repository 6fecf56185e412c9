"""Graded simple Lie algebras in a Chevalley basis.

The basis is {f_beta} + {h_i} + {e_beta} with beta running over the positive
roots in height-lex order. Structure constants are integers, with signs fixed
by a deterministic choice of defining pairs: for non-simple gamma the pair is
(alpha_i, gamma - alpha_i) with i the smallest node index that works, and
N_{alpha_i, gamma-alpha_i} = +(p+1) where p is the length of the downward
alpha_i-string through gamma - alpha_i. All remaining constants follow from
the Jacobi identities for triples of root vectors; the bracket convention is
[e_alpha, f_alpha] = h_{alpha^vee} (integral coroot coefficients).

The Sigma-height grading g = g_{-k} + ... + g_k, the grading element E, the
Killing form and the dual bases eta_a = e_a in p_+, xi_a = f_a / B(e_a, f_a)
in g_- all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .linalg import Q, QONE, QZERO, SpMat
from .rootspace import ParabolicSpec, Root, RootSystem, sigma_height

Label = tuple  # ("e", root) | ("f", root) | ("h", i)  with i 0-based


class DimensionMismatch(Exception):
    """Vector or matrix sized inconsistently with the algebra."""


class AlgebraNotCertified(Exception):
    """A structural identity of the graded Lie algebra failed."""


def _neg(r: Root) -> Root:
    return tuple(-x for x in r)


class _ChevalleyTable:
    """N_{r,s} for all ordered pairs of roots with r+s a root."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.pos = list(rs.pos_roots)
        self.posset = set(self.pos)
        self.allroots = set(self.pos) | {_neg(r) for r in self.pos}
        self.N: dict[tuple[Root, Root], object] = {}
        self.defining: dict[Root, tuple[int, Root, int]] = {}
        self._build()

    def _is_root(self, r) -> bool:
        return r in self.allroots

    def _p_down(self, a: Root, b: Root) -> int:
        # length of the a-string below b
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while self._is_root(cur):
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def _len2(self, r: Root):
        return self.rs.ip_root_root(r, r)

    def _build(self):
        rs = self.rs
        n = rs.rank
        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for gamma in self.pos:
            if sum(gamma) == 1:
                continue
            i = next(
                j for j in range(n)
                if tuple(a - b for a, b in zip(gamma, simples[j])) in self.posset
            )
            a = simples[i]
            b = tuple(x - y for x, y in zip(gamma, a))
            val = Q(self._p_down(a, b) + 1)
            self.N[(a, b)] = val
            self.N[(b, a)] = -val
            self.defining[gamma] = (i, b, int(val))
            # remaining positive pairs summing to gamma, via Jacobi on
            # (e_a, f_alpha, f_beta)
            seen = {frozenset((a, b))}
            for alpha in self.pos:
                beta = tuple(x - y for x, y in zip(gamma, alpha))
                if beta not in self.posset:
                    continue
                key = frozenset((alpha, beta))
                if key in seen or alpha == beta:
                    continue
                seen.add(key)
                denom = self._mixed(a, _neg(gamma))
                if not denom:
                    raise AlgebraNotCertified(
                        f"zero Jacobi denominator for the roots {alpha}, {beta}"
                    )
                t2 = QZERO
                amb = tuple(x - y for x, y in zip(a, beta))
                if self._is_root(amb):
                    t2 = self._general(_neg(beta), a) * self._general(_neg(alpha), amb)
                t3 = QZERO
                ama = tuple(x - y for x, y in zip(a, alpha))
                if self._is_root(ama):
                    t3 = self._general(a, _neg(alpha)) * self._general(_neg(beta), ama)
                nneg = -(t2 + t3) / denom  # N(-alpha,-beta)
                val = -nneg
                self.N[(alpha, beta)] = val
                self.N[(beta, alpha)] = -val
        # extend to every ordered pair of roots with root sum
        full: dict[tuple[Root, Root], object] = {}
        for r in self.allroots:
            for s in self.allroots:
                t = tuple(x + y for x, y in zip(r, s))
                if not self._is_root(t):
                    continue
                full[(r, s)] = self._general(r, s)
        self.N = full

    def _general(self, r: Root, s: Root):
        rpos = r in self.posset
        spos = s in self.posset
        if rpos and spos:
            return self.N[(r, s)]
        if not rpos and not spos:
            return -self._general(_neg(r), _neg(s))
        if rpos:
            return self._mixed(r, s)
        return -self._mixed(s, r)

    def _mixed(self, xi: Root, nzeta: Root):
        """N(xi, -zeta) for positive xi, zeta with xi - zeta a root (or 0 -> absent)."""
        zeta = _neg(nzeta)
        delta = tuple(x - y for x, y in zip(xi, zeta))
        if not self._is_root(delta):
            return QZERO
        if delta in self.posset:
            return -self.N[(zeta, delta)] * self._len2(delta) / self._len2(xi)
        dpos = _neg(delta)
        return self.N[(dpos, xi)] * self._len2(dpos) / self._len2(zeta)


@dataclass(frozen=True)
class DualBasisPair:
    """p_+ basis eta_a = e_{beta_a} and its Killing-dual xi_a = f_{beta_a}/d_a."""

    roots: tuple[Root, ...]  # Sigma-height >= 1, positive-root order
    d: tuple  # d_a = B(e_a, f_a), positive rationals

    def __len__(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class GradedLieAlgebra:
    par: ParabolicSpec
    basis: tuple[Label, ...]
    index: dict = field(repr=False)
    grade: tuple[int, ...]
    nfull: dict = field(repr=False)
    defining: dict = field(repr=False)

    @property
    def rs(self) -> RootSystem:
        return self.par.rs

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def depth(self) -> int:
        return max(self.grade) if self.grade else 0

    def grade_of(self, label: Label) -> int:
        return self.grade[self.index[label]]

    def pplus_roots(self) -> tuple[Root, ...]:
        return tuple(
            r for r in self.rs.pos_roots if sigma_height(self.par, r) >= 1
        )

    def g0_labels(self) -> tuple[Label, ...]:
        """Cartan h_i first, then height-zero e/f pairs in root order."""
        out: list[Label] = [("h", i) for i in range(self.rs.rank)]
        for r in self.rs.pos_roots:
            if sigma_height(self.par, r) == 0:
                out.append(("e", r))
        for r in self.rs.pos_roots:
            if sigma_height(self.par, r) == 0:
                out.append(("f", r))
        return tuple(out)

    def p_labels(self) -> tuple[Label, ...]:
        """Basis of p = g_0 + p_+, g_0 block first, then p_+ by grade order."""
        return self.g0_labels() + tuple(("e", r) for r in self.pplus_roots())

    def coroot_coeffs(self, beta: Root) -> dict[int, int]:
        """h_{beta^vee} = sum c_i d_i / d_beta h_i, integral."""
        rs = self.rs
        dbeta = rs.ip_root_root(beta, beta) / 2
        out = {}
        for i, c in enumerate(beta):
            if c:
                v = Q(c) * rs.d[i] / dbeta
                iv = int(v)
                if iv != v:
                    raise AlgebraNotCertified(f"coroot of {beta} is not integral")
                out[i] = iv
        return out

    def bracket_labels(self, l1: Label, l2: Label) -> dict[Label, object]:
        """[l1, l2] as a dict over basis labels."""
        rs = self.rs
        if l1[0] == "h" and l2[0] == "h":
            return {}
        if l1[0] == "h":
            r = l2[1] if l2[0] == "e" else _neg(l2[1])
            c = rs.coroot_pairing(l1[1], r)
            return {l2: Q(c)} if c else {}
        if l2[0] == "h":
            out = self.bracket_labels(l2, l1)
            return {k: -v for k, v in out.items()}
        r = l1[1] if l1[0] == "e" else _neg(l1[1])
        s = l2[1] if l2[0] == "e" else _neg(l2[1])
        tot = tuple(x + y for x, y in zip(r, s))
        if all(x == 0 for x in tot):
            sign = 1 if l1[0] == "e" else -1
            beta = l1[1]
            return {
                ("h", i): Q(sign * c) for i, c in self.coroot_coeffs(beta).items()
            }
        nval = self.nfull.get((r, s))
        if not nval:
            return {}
        lab = ("e", tot) if rs.is_positive(tot) else ("f", _neg(tot))
        return {lab: nval}

    def bracket_vec(self, v1: dict, v2: dict) -> dict:
        """Bracket of vectors given as {label: coeff} dicts."""
        out: dict[Label, object] = {}
        for l1, c1 in v1.items():
            for l2, c2 in v2.items():
                for l3, c3 in self.bracket_labels(l1, l2).items():
                    s = out.get(l3, QZERO) + c1 * c2 * c3
                    if s:
                        out[l3] = s
                    else:
                        out.pop(l3, None)
        return out

    def adjoint_matrix(self, label: Label) -> SpMat:
        out = SpMat(self.dim, self.dim)
        for j, l2 in enumerate(self.basis):
            for l3, c in self.bracket_labels(label, l2).items():
                out.set(self.index[l3], j, c)
        return out

    def killing_form(self) -> SpMat:
        """Gram matrix of B on the basis (trace form of the adjoint action)."""
        rk = self.rs.rank
        out = SpMat(self.dim, self.dim)
        # h-block: B(h_i, h_j) = sum over roots of <alpha_i^vee, r><alpha_j^vee, r>
        for i in range(rk):
            for j in range(rk):
                s = QZERO
                for r in self.rs.pos_roots:
                    s += 2 * self.rs.coroot_pairing(i, r) * self.rs.coroot_pairing(j, r)
                out.set(self.index[("h", i)], self.index[("h", j)], s)
        # root pairs: only B(e_a, f_a) survives by weight bookkeeping
        for r in self.rs.pos_roots:
            ade = self.adjoint_matrix(("e", r))
            adf = self.adjoint_matrix(("f", r))
            prod = ade @ adf
            tr = sum(prod.get(i, i) for i in range(self.dim))
            ie, jf = self.index[("e", r)], self.index[("f", r)]
            out.set(ie, jf, tr)
            out.set(jf, ie, tr)
        return out

    def killing_pairing(self, r: Root):
        """B(e_r, f_r) without assembling the whole Gram matrix."""
        ade = self.adjoint_matrix(("e", r))
        adf = self.adjoint_matrix(("f", r))
        prod = ade @ adf
        return sum(prod.get(i, i) for i in range(self.dim))

    def grading_element(self) -> dict[Label, object]:
        """E in the Cartan with alpha_i(E) = 1 exactly at crossed nodes."""
        rs = self.rs
        n = rs.rank
        target = SpMat.from_dense(
            [[1 if (i + 1) in self.par.sigma else 0] for i in range(n)]
        )
        CT = SpMat.from_dense(rs.cartan).transpose()
        x = CT.solve(target)
        return {("h", j): x.get(j, 0) for j in range(n) if x.get(j, 0)}

    def dual_bases(self) -> DualBasisPair:
        """The Killing-dual bases of p_+, computed once per algebra."""
        return self._dual_bases

    @cached_property
    def _dual_bases(self) -> DualBasisPair:
        roots = self.pplus_roots()
        d = tuple(self.killing_pairing(r) for r in roots)
        if any(v <= 0 for v in d):
            raise AlgebraNotCertified("Killing pairing of p_+ is not positive")
        return DualBasisPair(roots=roots, d=d)


def build_graded_algebra(par: ParabolicSpec) -> GradedLieAlgebra:
    rs = par.rs
    table = _ChevalleyTable(rs)
    basis: list[Label] = []
    grade: list[int] = []
    for r in rs.pos_roots:
        basis.append(("f", r))
        grade.append(-sigma_height(par, r))
    for i in range(rs.rank):
        basis.append(("h", i))
        grade.append(0)
    for r in rs.pos_roots:
        basis.append(("e", r))
        grade.append(sigma_height(par, r))
    return GradedLieAlgebra(
        par=par,
        basis=tuple(basis),
        index={l: i for i, l in enumerate(basis)},
        grade=tuple(grade),
        nfull=table.N,
        defining=table.defining,
    )


def action_from_simples(
    g: GradedLieAlgebra,
    e_simple: list[SpMat],
    f_simple: list[SpMat],
    h_mats: list[SpMat],
) -> dict[Label, SpMat]:
    """Action matrices for the full basis from generator matrices.

    e_gamma is expanded through its defining pair, f_gamma through the mirror
    relation f_gamma = -[f_i, f_delta]/N; any representation built this way
    matches the algebra's own structure constants sign for sign.
    """
    rs = g.rs
    n = rs.rank
    dim = e_simple[0].nrows
    for m in e_simple + f_simple + h_mats:
        if m.nrows != dim or m.ncols != dim:
            raise DimensionMismatch("generator matrices must share one square shape")
    out: dict[Label, SpMat] = {}
    for i in range(n):
        out[("h", i)] = h_mats[i]
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for r in rs.pos_roots:
        if sum(r) == 1:
            i = r.index(1)
            out[("e", r)] = e_simple[i]
            out[("f", r)] = f_simple[i]
    for r in rs.pos_roots:
        if sum(r) == 1:
            continue
        i, delta, nval = g.defining[r]
        ei, fi = out[("e", simples[i])], out[("f", simples[i])]
        ed, fd = out[("e", delta)], out[("f", delta)]
        inv = QONE / Q(nval)
        out[("e", r)] = (ei @ ed - ed @ ei).scale(inv)
        out[("f", r)] = (fi @ fd - fd @ fi).scale(-inv)
    return out
