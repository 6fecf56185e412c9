"""Root systems, parabolic subsets, Weyl combinatorics.

Conventions, fixed once and used everywhere:

* Cartan matrix C[i][j] = <alpha_i^vee, alpha_j> = 2(alpha_i,alpha_j)/(alpha_i,alpha_i),
  Bourbaki numbering, 1-based node labels at the API surface.
* Roots live in simple-root coordinates (integer tuples), weights in
  fundamental-weight coordinates (integer tuples).
* Positive roots are ordered by height, then lexicographically; this order is
  load-bearing (Chevalley signs, basis orders downstream).
* Symmetrizers d_i are normalized so short roots have squared length 2,
  (alpha_i, alpha_j) = d_i * C[i][j].
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import Q

Root = tuple[int, ...]
Weight = tuple[int, ...]


class NotFiniteType(Exception):
    """Input is not a valid Cartan matrix of finite type."""


class NotIrreducible(Exception):
    """The Dynkin diagram is disconnected."""


class UnknownRoot(Exception):
    """Tuple is not a root of this system."""


class NonDominant(Exception):
    """Weight has a negative fundamental coordinate."""


class RootSystemNotCertified(Exception):
    """A structural fact of the root system or its Weyl group failed."""


_SERIES_RE = re.compile(r"^([A-G])\s*(\d+)$")


def cartan_matrix_from_series(label: str) -> list[list[int]]:
    """Cartan matrix for a series label like 'A3', 'B2', 'E6', 'G2'."""
    m = _SERIES_RE.match(label.strip())
    if not m:
        raise NotFiniteType(f"cannot parse series label {label!r}")
    letter, n = m.group(1), int(m.group(2))
    low = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}[letter]
    high = {"A": 10**6, "B": 10**6, "C": 10**6, "D": 10**6, "E": 8, "F": 4, "G": 2}[letter]
    if not low <= n <= high:
        raise NotFiniteType(f"rank {n} out of range for series {letter}")

    C = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i, j):  # simple edge, 0-based
        C[i][j] = C[j][i] = -1

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if letter == "B" and n >= 2:
            C[n - 1][n - 2] = -2  # alpha_n short
        if letter == "C" and n >= 2:
            C[n - 2][n - 1] = -2  # alpha_n long
    elif letter == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif letter == "F":
        edge(0, 1)
        edge(1, 2)
        edge(2, 3)
        C[2][1] = -2  # alpha_3, alpha_4 short
    elif letter == "G":
        C[0][1] = -3  # alpha_1 short
        C[1][0] = -1
    return C


def _symmetrizers(C: list[list[int]]) -> list:
    """Positive rationals d with d_i C_ij = d_j C_ji, short roots normalized to d=1."""
    n = len(C)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or C[i][j] == 0:
                    continue
                if C[j][i] == 0:
                    raise NotFiniteType("asymmetric zero pattern")
                val = d[i] * Fraction(C[i][j], C[j][i])
                if d[j] is None:
                    d[j] = val
                    stack.append(j)
                elif d[j] != val:
                    raise NotFiniteType("Cartan matrix is not symmetrizable")
    m = min(d)
    return [Q((x / m).numerator, (x / m).denominator) for x in d]


def _check_positive_definite(C: list[list[int]], d: list) -> None:
    n = len(C)
    S = [[d[i] * C[i][j] for j in range(n)] for i in range(n)]
    # Sylvester: leading principal minors, exact fraction-free is overkill here
    for k in range(1, n + 1):
        minor = _det([row[:k] for row in S[:k]])
        if minor <= 0:
            raise NotFiniteType("symmetrized Cartan matrix is not positive definite")


def _det(M: list[list]) -> object:
    n = len(M)
    M = [[Q(v) for v in row] for row in M]
    det = Q(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Q(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c]:
                f = M[r][c] * inv
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


def _check_connected(C: list[list[int]]) -> None:
    n = len(C)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and C[i][j] != 0:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        raise NotIrreducible("Dynkin diagram is disconnected")


@dataclass(frozen=True)
class RootSystem:
    cartan: tuple[tuple[int, ...], ...]
    rank: int
    d: tuple  # symmetrizers, (alpha_i, alpha_i) = 2 d_i
    pos_roots: tuple[Root, ...] = field(repr=False)
    label: str = ""

    def is_root(self, c: Root) -> bool:
        cp = tuple(c)
        return cp in self.pos_roots or tuple(-x for x in cp) in self.pos_roots

    def is_positive(self, c: Root) -> bool:
        return tuple(c) in self.pos_roots

    def height(self, c: Root) -> int:
        return sum(c)

    def coroot_pairing(self, i: int, c) -> object:
        """<alpha_i^vee, x> for x in simple-root coordinates, 0-based i."""
        return sum(self.cartan[i][j] * c[j] for j in range(self.rank))

    def root_to_weight(self, c: Root) -> Weight:
        return tuple(self.coroot_pairing(i, c) for i in range(self.rank))

    def ip_root_root(self, a: Root, b: Root):
        return sum(
            self.d[i] * self.cartan[i][j] * a[i] * b[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def ip_weight_root(self, lam: Weight, c: Root):
        """(lambda, beta) for lambda in fundamental, beta in root coordinates."""
        return sum(Q(lam[j]) * c[j] * self.d[j] for j in range(self.rank))

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    @property
    def highest_root(self) -> Root:
        return self.pos_roots[-1]

    def reflect_weight(self, i: int, lam: Weight) -> Weight:
        """s_{i+1} acting on fundamental coordinates (0-based i)."""
        return tuple(lam[j] - self.cartan[j][i] * lam[i] for j in range(self.rank))

    def reflect_root(self, i: int, c: Root) -> Root:
        out = list(c)
        out[i] -= self.coroot_pairing(i, c)
        return tuple(out)


def build_root_system(spec) -> RootSystem:
    """Root system from a series label ('A3') or an explicit Cartan matrix.

    Raises NotFiniteType / NotIrreducible on bad input.
    """
    label = ""
    if isinstance(spec, str):
        label = spec.strip().upper().replace(" ", "")
        C = cartan_matrix_from_series(label)
    else:
        C = [list(map(int, row)) for row in spec]
    n = len(C)
    if n == 0 or any(len(row) != n for row in C):
        raise NotFiniteType("Cartan matrix must be square and nonempty")
    for i in range(n):
        if C[i][i] != 2:
            raise NotFiniteType("diagonal entries must equal 2")
        for j in range(n):
            if i != j and C[i][j] > 0:
                raise NotFiniteType("off-diagonal entries must be <= 0")
            if i != j and (C[i][j] == 0) != (C[j][i] == 0):
                raise NotFiniteType("asymmetric zero pattern")
    _check_connected(C)
    d = _symmetrizers(C)
    _check_positive_definite(C, d)

    # positive roots by height recursion using root strings
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
        new: list[Root] = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(C[i][j] * beta[j] for j in range(n))
                # p = length of the downward alpha_i string through beta
                p = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    t = tuple(cur)
                    if t in roots or tuple(-x for x in t) in roots:
                        p += 1
                    else:
                        break
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        new.append(t)
        frontier = new
    pos = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    heights = [sum(r) for r in pos]
    if heights.count(heights[-1]) != 1:
        raise RootSystemNotCertified("no unique highest root")
    return RootSystem(
        cartan=tuple(tuple(row) for row in C),
        rank=n,
        d=tuple(d),
        pos_roots=pos,
        label=label,
    )


@dataclass(frozen=True)
class ParabolicSpec:
    """A root system with a set of crossed nodes (1-based, Bourbaki)."""

    rs: RootSystem
    sigma: frozenset[int]

    def __post_init__(self):
        for i in self.sigma:
            if not (1 <= i <= self.rs.rank):
                raise ValueError(f"crossed node {i} outside 1..{self.rs.rank}")

    @property
    def uncrossed(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.rs.rank + 1) if i not in self.sigma)


def parabolic(spec, sigma) -> ParabolicSpec:
    rs = spec if isinstance(spec, RootSystem) else build_root_system(spec)
    return ParabolicSpec(rs=rs, sigma=frozenset(int(i) for i in sigma))


def sigma_height(p: ParabolicSpec, c: Root) -> int:
    if not p.rs.is_root(c):
        raise UnknownRoot(f"{tuple(c)} is not a root")
    return sum(c[i - 1] for i in p.sigma)


def grading_depth(p: ParabolicSpec) -> int:
    if not p.rs.pos_roots:
        return 0
    return max(sigma_height(p, r) for r in p.rs.pos_roots)


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    if len(lam) != rs.rank:
        raise NonDominant(f"weight has {len(lam)} coordinates, expected {rs.rank}")
    if any(x < 0 for x in lam):
        raise NonDominant(f"{tuple(lam)} is not dominant")
    rho = rs.rho
    shifted = tuple(a + b for a, b in zip(lam, rho))
    num = Q(1)
    den = Q(1)
    for beta in rs.pos_roots:
        num *= rs.ip_weight_root(shifted, beta)
        den *= rs.ip_weight_root(rho, beta)
    val = num / den
    out = int(val)
    if out != val or out <= 0:
        raise RootSystemNotCertified(f"Weyl dimension of {tuple(lam)} is {val}")
    return out


@dataclass(frozen=True)
class WeylElt:
    """Weyl group element with its action matrices and a lex-least reduced word."""

    rs: RootSystem
    word: tuple[int, ...]  # 1-based simple reflection indices
    mat_root: tuple[tuple[int, ...], ...]  # action on simple-root coordinates
    mat_weight: tuple[tuple[int, ...], ...]  # action on fundamental coordinates

    @property
    def length(self) -> int:
        return len(self.word)

    def act_root(self, c: Root) -> Root:
        return tuple(
            sum(self.mat_root[i][j] * c[j] for j in range(self.rs.rank))
            for i in range(self.rs.rank)
        )

    def act_weight(self, lam: Weight) -> Weight:
        return tuple(
            sum(self.mat_weight[i][j] * lam[j] for j in range(self.rs.rank))
            for i in range(self.rs.rank)
        )

    def mul_simple_right(self, i: int) -> "WeylElt":
        s = simple_reflection(self.rs, i)
        return WeylElt(
            rs=self.rs,
            word=self.word + (i,),
            mat_root=_matmul_int(self.mat_root, s.mat_root),
            mat_weight=_matmul_int(self.mat_weight, s.mat_weight),
        )

    def inversion_count(self) -> int:
        return sum(
            1 for beta in self.rs.pos_roots if sum(self.act_root(beta)) < 0
        )


def _matmul_int(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def identity_weyl(rs: RootSystem) -> WeylElt:
    eye = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    return WeylElt(rs=rs, word=(), mat_root=eye, mat_weight=eye)


def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    """1-based i."""
    k = i - 1
    n = rs.rank
    mr = tuple(
        tuple(int(a == b) - (int(a == k)) * rs.cartan[k][b] for b in range(n))
        for a in range(n)
    )
    mw = tuple(
        tuple(int(a == b) - rs.cartan[a][k] * int(b == k) for b in range(n))
        for a in range(n)
    )
    return WeylElt(rs=rs, word=(i,), mat_root=mr, mat_weight=mw)


def enumerate_weyl(rs: RootSystem, max_elements: int = 200000) -> list[WeylElt]:
    """All of W, BFS by length, lex-least reduced word per element."""
    e = identity_weyl(rs)
    seen = {e.mat_root: e}
    frontier = [e]
    out = [e]
    while frontier:
        nxt: list[WeylElt] = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                w2 = w.mul_simple_right(i)
                if w2.mat_root not in seen:
                    seen[w2.mat_root] = w2
                    nxt.append(w2)
                    out.append(w2)
                    if len(out) > max_elements:
                        raise NotFiniteType(
                            f"Weyl group larger than cap {max_elements}"
                        )
        nxt.sort(key=lambda w: w.word)
        frontier = nxt
    return out


def parabolic_hasse(p: ParabolicSpec) -> list[list[WeylElt]]:
    """W^p graded by length: w with w^{-1}(alpha_j) > 0 for every uncrossed j.

    Level n holds the length-n elements, sorted by reduced word. Row j of
    ``w.mat_weight`` holds the coroot coordinates of w^{-1}(alpha_j^vee),
    which is positive exactly when w^{-1}(alpha_j) is; a root is positive or
    negative, so the test is that the row has a positive entry, and no
    inverse is built.
    """
    uncrossed0 = [j - 1 for j in p.uncrossed]
    levels: dict[int, list[WeylElt]] = {}
    for w in enumerate_weyl(p.rs):
        if all(max(w.mat_weight[j]) > 0 for j in uncrossed0):
            levels.setdefault(w.length, []).append(w)
    if not levels:
        return []
    top = max(levels)
    if set(levels) != set(range(top + 1)):
        raise RootSystemNotCertified("Hasse diagram of W^p has a gap in lengths")
    return [sorted(levels[n], key=lambda w: w.word) for n in range(top + 1)]


def affine_dot_action(w: WeylElt, lam: Weight) -> Weight:
    """rho-shifted action w.lam = w(lam+rho)-rho in fundamental coordinates."""
    rho = w.rs.rho
    shifted = tuple(a + b for a, b in zip(lam, rho))
    img = w.act_weight(shifted)
    return tuple(a - b for a, b in zip(img, rho))


def dominant_representative(rs: RootSystem, lam: Weight) -> Weight:
    """The dominant Weyl orbit representative (plain, unshifted action)."""
    cur = tuple(lam)
    while True:
        i = next((j for j in range(rs.rank) if cur[j] < 0), None)
        if i is None:
            return cur
        cur = rs.reflect_weight(i, cur)


def dominant_representative_for(rs: RootSystem, nodes: tuple[int, ...], lam: Weight) -> Weight:
    """Dominant representative under the subgroup generated by the given 1-based nodes."""
    cur = tuple(lam)
    while True:
        i = next((j for j in nodes if cur[j - 1] < 0), None)
        if i is None:
            return cur
        cur = rs.reflect_weight(i - 1, cur)
