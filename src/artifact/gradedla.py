"""Graded simple Lie algebras in a Chevalley basis.

The basis is {f_beta} + {h_i} + {e_beta} with beta running over the positive
roots in height-lex order. Structure constants are integers, with signs fixed
by a deterministic choice of defining pairs: for non-simple gamma the pair is
(alpha_i, gamma - alpha_i) with i the smallest node index that works, and
N_{alpha_i, gamma-alpha_i} = +(p+1) where p is the length of the downward
alpha_i-string through gamma - alpha_i. The remaining constants on pairs of
positive roots follow from the Jacobi identities for triples of root
vectors, and are the one table kept; a pair with a negative root is read
off it by sign rules. The bracket convention is [e_alpha, f_alpha] =
h_{alpha^vee} (integral coroot coefficients).

The Sigma-height grading g = g_{-k} + ... + g_k, the grading element E and
its eigenvalue on weights, and the pairings d_a of the p_+ roots all live
here. g_- is paired with p_+ by the normalised invariant form
(x|y) = B(x, y) / 2h^vee (Kac, Infinite-dimensional Lie algebras, 6.2),
under which a long root has (e_a|f_a) = 1. So d_a = (e_a|f_a) is 1 on
every root of A, D and E, and 2 (B, C, F) or 3 (G) on a short root;
xi_a = f_a / d_a in g_- is dual to eta_a = e_a in p_+, and the cochain
complexes and jet towers of A, D and E are integral. Any nonzero multiple
of B gives the same BGG sequence: the raw Killing pairing B(e_a, f_a) is
2h^vee d_a. Each derived table is a cached attribute, built once per
algebra on first read.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .linalg import Q, QONE, QZERO, SpMat
from .rootspace import ParabolicSpec, Root, RootSystem, Weight, sigma_height

Label = tuple  # ("e", root) | ("f", root) | ("h", i)  with i 0-based


class DimensionMismatch(Exception):
    """Vector or matrix sized inconsistently with the algebra."""


class AlgebraNotCertified(Exception):
    """A structural identity of the graded Lie algebra failed."""


def _neg(r: Root) -> Root:
    return tuple(-x for x in r)


class _ChevalleyTable:
    """N_{r,s} on the ordered pairs of positive roots with r+s a root, built
    by the Jacobi pass; every other pair is read through the sign rules
    ``_general`` and ``_mixed``."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.N: dict[tuple[Root, Root], object] = {}
        self.defining: dict[Root, tuple[int, Root, int]] = {}
        self.len2 = {r: rs.ip_root_root(r, r) for r in rs.pos_roots}  # (r, r), an int
        self._build()

    def _p_down(self, a: Root, b: Root) -> int:
        # length of the a-string below b
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while self.rs.is_root(cur):
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def _build(self):
        rs = self.rs
        n = rs.rank
        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for gamma in rs.pos_roots:
            if sum(gamma) == 1:
                continue
            i = next(
                j for j in range(n)
                if rs.is_positive(tuple(a - b for a, b in zip(gamma, simples[j])))
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
            for alpha in rs.pos_roots:
                beta = tuple(x - y for x, y in zip(gamma, alpha))
                if not rs.is_positive(beta):
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
                if rs.is_root(amb):
                    t2 = self._general(_neg(beta), a) * self._general(_neg(alpha), amb)
                t3 = QZERO
                ama = tuple(x - y for x, y in zip(a, alpha))
                if rs.is_root(ama):
                    t3 = self._general(a, _neg(alpha)) * self._general(_neg(beta), ama)
                nneg = -(t2 + t3) / denom  # N(-alpha,-beta)
                val = -nneg
                self.N[(alpha, beta)] = val
                self.N[(beta, alpha)] = -val

    def _general(self, r: Root, s: Root):
        """N(r, s) for roots r, s with r + s a root."""
        rpos = self.rs.is_positive(r)
        spos = self.rs.is_positive(s)
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
        if not self.rs.is_root(delta):
            return QZERO
        if self.rs.is_positive(delta):
            return -self.N[(zeta, delta)] * Q(self.len2[delta], self.len2[xi])
        dpos = _neg(delta)
        return self.N[(dpos, xi)] * Q(self.len2[dpos], self.len2[zeta])


class GradedLieAlgebra:
    def __init__(self, par: ParabolicSpec, basis: tuple[Label, ...], index: dict,
                 grade: tuple[int, ...]):
        self.par, self.basis, self.index, self.grade = par, basis, index, grade

    @cached_property
    def table(self) -> _ChevalleyTable:
        """The structure constants, built on first read: a job refused by a
        budget never builds them."""
        return _ChevalleyTable(self.rs)

    @property
    def rs(self) -> RootSystem:
        return self.par.rs

    @property
    def dim(self) -> int:
        return len(self.basis)

    def grade_of(self, label: Label) -> int:
        return self.grade[self.index[label]]

    @cached_property
    def pplus_roots(self) -> tuple[Root, ...]:
        """The roots of Sigma-height >= 1 in positive-root order."""
        return tuple(
            r for r in self.rs.pos_roots if sigma_height(self.par, r) >= 1
        )

    @cached_property
    def g0_labels(self) -> tuple[Label, ...]:
        """Cartan h_i first, then height-zero e/f pairs in root order."""
        level = [r for r in self.rs.pos_roots if sigma_height(self.par, r) == 0]
        return (tuple(("h", i) for i in range(self.rs.rank))
                + tuple(("e", r) for r in level) + tuple(("f", r) for r in level))

    @cached_property
    def p_labels(self) -> tuple[Label, ...]:
        """Basis of p = g_0 + p_+, g_0 block first, then p_+ by grade order."""
        return self.g0_labels + tuple(("e", r) for r in self.pplus_roots)

    def coroot_coeffs(self, beta: Root) -> dict[int, int]:
        """h_{beta^vee} = sum c_i d_i / d_beta h_i, integral; (beta, beta) =
        2 d_beta, so each coefficient is an exact int quotient."""
        rs = self.rs
        len2 = rs.ip_root_root(beta, beta)
        out = {}
        for i, c in enumerate(beta):
            if c:
                iv, rem = divmod(2 * c * rs.d[i], len2)
                if rem:
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
        if not rs.is_root(tot):
            return {}
        lab = ("e", tot) if rs.is_positive(tot) else ("f", _neg(tot))
        return {lab: self.table._general(r, s)}

    def killing_pairing(self, beta: Root) -> int:
        """B(e_beta, f_beta) = sum over positive alpha of <alpha, beta^vee>^2,
        with <alpha, beta^vee> = sum_i c_i <alpha, alpha_i^vee> for the
        integral coroot coefficients c of ``coroot_coeffs``: the form
        sum_j w_j alpha_j, w_j = sum_i c_i C_ij, read once per beta."""
        rs = self.rs
        c = self.coroot_coeffs(beta)
        w = [sum(ci * rs.cartan[i][j] for i, ci in c.items()) for j in range(rs.rank)]
        return sum(sum(x * a for x, a in zip(w, alpha)) ** 2 for alpha in rs.pos_roots)

    @cached_property
    def grading_element(self) -> dict[Label, object]:
        """E in the Cartan with alpha_i(E) = 1 exactly at crossed nodes;
        solved once per algebra, and the dict is shared by every reader."""
        rs = self.rs
        n = rs.rank
        target = SpMat.from_dense(
            [[1 if (i + 1) in self.par.sigma else 0] for i in range(n)]
        )
        CT = SpMat.from_dense(rs.cartan).transpose()
        x = CT.solve(target)
        return {("h", j): x.get(j, 0) for j in range(n) if x.get(j, 0)}

    def e_eigenvalue(self, mu: Weight):
        """The eigenvalue of E on the weight mu (fundamental coordinates),
        summed in ints over the common denominator of E's coordinates; an
        int when it is integral."""
        nums, den = self._grading_ints
        top = sum(c * m for c, m in zip(nums, mu))
        return top // den if top % den == 0 else Q(top, den)

    @cached_property
    def _grading_ints(self) -> tuple[tuple[int, ...], int]:
        E = self.grading_element
        coords = [Q(E.get(("h", j), 0)) for j in range(self.rs.rank)]
        den = lcm(*(c.denominator for c in coords))
        return tuple(int(c * den) for c in coords), den

    @cached_property
    def pairing_d(self) -> tuple[int, ...]:
        """d_a = B(e_a, f_a) / 2h^vee for each root of ``pplus_roots``: the
        dual of eta_a = e_a in p_+ under B / 2h^vee is xi_a = f_a / d_a in
        g_-. The divisor is the pairing of the highest root, which is long,
        so it is 2h^vee, the least pairing and their gcd; each quotient is
        certified a positive int."""
        unit = self.killing_pairing(self.rs.pos_roots[-1])
        raw = [self.killing_pairing(r) for r in self.pplus_roots]
        if unit <= 0 or any(v <= 0 or v % unit for v in raw):
            raise AlgebraNotCertified(
                f"the long-root pairing {unit} does not divide the Killing pairings of p_+"
            )
        return tuple(v // unit for v in raw)

    @cached_property
    def pplus_action(self) -> dict[Label, SpMat]:
        """ad Z on p_+ in the basis eta_a, for each Z in p; the matrices are
        shared by every reader."""
        roots = self.pplus_roots
        idx = {r: k for k, r in enumerate(roots)}
        acts = {}
        for lab in self.p_labels:
            entries = {}
            for k, r in enumerate(roots):
                for out_lab, c in self.bracket_labels(lab, ("e", r)).items():
                    if out_lab[0] != "e" or out_lab[1] not in idx:
                        raise AlgebraNotCertified(f"[{lab}, e_{r}] leaves p_+")
                    entries[idx[out_lab[1]], k] = c
            acts[lab] = SpMat.from_entries(len(roots), len(roots), entries)
        return acts

    @cached_property
    def xi_brackets(self) -> dict[Label, tuple[tuple[int, Label, object], ...]]:
        """For each Z in p, [Z, xi_a] = sum (c / d_a) B as terms
        (a, B, c / d_a), over each a with |eta_a| <= |Z| (none when
        |Z| = 0); d_a = ``pairing_d``, so every c / d_a of A, D and E is
        integral."""
        d = self.pairing_d
        out = {}
        for lab in self.p_labels:
            w = self.grade_of(lab)
            out[lab] = tuple(
                (a, blab, c / d[a])
                for a, root in enumerate(self.pplus_roots)
                if w >= 1 and self.grade_of(("e", root)) <= w
                for blab, c in self.bracket_labels(lab, ("f", root)).items()
            )
        return out


def build_graded_algebra(par: ParabolicSpec) -> GradedLieAlgebra:
    rs = par.rs
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
        i, delta, nval = g.table.defining[r]
        ei, fi = out[("e", simples[i])], out[("f", simples[i])]
        ed, fd = out[("e", delta)], out[("f", delta)]
        inv = QONE / Q(nval)
        out[("e", r)] = SpMat.assemble(dim, dim, [(0, 0, inv, (ei, ed)), (0, 0, -inv, (ed, ei))])
        out[("f", r)] = SpMat.assemble(dim, dim, [(0, 0, -inv, (fi, fd)), (0, 0, inv, (fd, fi))])
    return out
