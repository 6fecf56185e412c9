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
MAX_HASSE_ELEMENTS = 200000  # cap on |W^p| in parabolic_hasse


def _series(label: str) -> tuple[str, int]:
    """(letter, rank) of a series label like 'A3', read off its digits."""
    m = _SERIES_RE.match(label.strip())
    if not m:
        raise NotFiniteType(f"cannot parse series label {label!r}")
    letter, n = m.group(1), int(m.group(2))
    low = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}[letter]
    high = {"A": 10**6, "B": 10**6, "C": 10**6, "D": 10**6, "E": 8, "F": 4, "G": 2}[letter]
    if not low <= n <= high:
        raise NotFiniteType(f"rank {n} out of range for series {letter}")
    return letter, n


def cartan_matrix_from_series(label: str) -> list[list[int]]:
    """Cartan matrix for a series label like 'A3', 'B2', 'E6', 'G2'."""
    letter, n = _series(label)
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


def _symmetrizers(C: list[list[int]]) -> list[int]:
    """Positive integers d with d_i C_ij = d_j C_ji, short roots normalized to
    d=1. Every finite type has integral d (1, 2 or 3); any other ratio raises
    NotFiniteType."""
    n = len(C)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or C[i][j] == 0:
                    continue
                if C[j][i] == 0:
                    raise NotFiniteType("asymmetric zero pattern")
                val = d[i] * Q(C[i][j], C[j][i])
                if d[j] is None:
                    d[j] = val
                    stack.append(j)
                elif d[j] != val:
                    raise NotFiniteType("Cartan matrix is not symmetrizable")
    m = min(d)
    d = [x / m for x in d]
    if any(x.denominator != 1 for x in d):
        raise NotFiniteType("symmetrizers are not integral")
    return [int(x) for x in d]


def _check_positive_definite(C: list[list[int]], d: list[int]) -> None:
    """Sylvester's criterion on S = (d_i C_ij) by one fraction-free (Bareiss)
    elimination with no row exchanges. Its k-th pivot is the k-th leading
    principal minor of S, and every division is exact, so the pass stays in
    the integers and stops at the first pivot <= 0."""
    n = len(C)
    S = [[d[i] * C[i][j] for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = S[k][k]
        if piv <= 0:
            raise NotFiniteType("symmetrized Cartan matrix is not positive definite")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                S[i][j] = (piv * S[i][j] - S[i][k] * S[k][j]) // prev
        prev = piv


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


class RootSystem:
    def __init__(self, cartan: tuple[tuple[int, ...], ...], rank: int, d: tuple,
                 pos_roots: tuple[Root, ...], label: str = ""):
        self.cartan, self.rank, self.pos_roots, self.label = cartan, rank, pos_roots, label
        self.d = d  # int symmetrizers, (alpha_i, alpha_i) = 2 d_i
        self._positive = frozenset(pos_roots)  # what is_root and is_positive read

    def is_root(self, c: Root) -> bool:
        cp = tuple(c)
        return cp in self._positive or tuple(-x for x in cp) in self._positive

    def is_positive(self, c: Root) -> bool:
        return tuple(c) in self._positive

    def coroot_pairing(self, i: int, c) -> object:
        """<alpha_i^vee, x> for x in simple-root coordinates, 0-based i."""
        return sum(self.cartan[i][j] * c[j] for j in range(self.rank))

    def root_to_weight(self, c: Root) -> Weight:
        return tuple(self.coroot_pairing(i, c) for i in range(self.rank))

    def ip_root_root(self, a: Root, b: Root) -> int:
        return sum(
            self.d[i] * self.cartan[i][j] * a[i] * b[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def ip_weight_root(self, lam: Weight, c: Root):
        """(lambda, beta) for lambda in fundamental, beta in root coordinates:
        an int for an integral lambda."""
        return sum(lam[j] * c[j] * self.d[j] for j in range(self.rank))

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    def reflect_weight(self, i: int, lam: Weight) -> Weight:
        """s_{i+1} acting on fundamental coordinates (0-based i)."""
        return tuple(lam[j] - self.cartan[j][i] * lam[i] for j in range(self.rank))


def _label(spec: str) -> str:
    return spec.strip().upper().replace(" ", "")


def _matrix(spec) -> list[list[int]]:
    """An explicit Cartan matrix as a list of int rows, square and nonempty."""
    # int() would read 2.7 and "2" as 2; a bool, an int subclass, is refused too
    if not all(isinstance(row, (list, tuple)) and all(type(x) is int for x in row)
               for row in spec):
        raise NotFiniteType("Cartan matrix entries must be integers")
    C = [list(row) for row in spec]
    n = len(C)
    if n == 0 or any(len(row) != n for row in C):
        raise NotFiniteType("Cartan matrix must be square and nonempty")
    return C


def spec_rank(spec) -> int:
    """The rank a series label or an explicit Cartan matrix names, read
    before anything is built: the digits of the label, or the row count of
    the matrix. Raises the NotFiniteType that ``build_root_system`` raises
    first on a label that does not parse or a malformed matrix."""
    if isinstance(spec, str):
        return _series(_label(spec))[1]
    return len(_matrix(spec))


def build_root_system(spec) -> RootSystem:
    """Root system from a series label ('A3') or an explicit Cartan matrix.
    The label kept is the letter and the rank the series label names, so
    'a 3' and 'A03' are both 'A3'.

    Raises NotFiniteType / NotIrreducible on bad input.
    """
    label = ""
    if isinstance(spec, str):
        letter, rank = _series(_label(spec))
        label = f"{letter}{rank}"
        C = cartan_matrix_from_series(label)
    else:
        C = _matrix(spec)
    n = len(C)
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


class ParabolicSpec:
    """A root system with a set of crossed nodes (1-based, Bourbaki)."""

    def __init__(self, rs: RootSystem, sigma: frozenset[int]):
        for i in sigma:
            if not (1 <= i <= rs.rank):
                raise ValueError(f"crossed node {i} outside 1..{rs.rank}")
        self.rs, self.sigma = rs, sigma

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


def _weyl_product(rs: RootSystem, lam: Weight, roots) -> int:
    """Weyl's product over ``roots`` of (lam + rho, beta) / (rho, beta),
    certified a positive integer. Both products are taken in ints, and
    divided once."""
    rho = rs.rho
    shifted = tuple(a + b for a, b in zip(lam, rho))
    num = den = 1
    for beta in roots:
        num *= rs.ip_weight_root(shifted, beta)
        den *= rs.ip_weight_root(rho, beta)
    val = Q(num, den)
    out = int(val)
    if out != val or out <= 0:
        raise RootSystemNotCertified(f"Weyl dimension of {tuple(lam)} is {val}")
    return out


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    if len(lam) != rs.rank:
        raise NonDominant(f"weight has {len(lam)} coordinates, expected {rs.rank}")
    if any(x < 0 for x in lam):
        raise NonDominant(f"{tuple(lam)} is not dominant")
    return _weyl_product(rs, lam, rs.pos_roots)


def levi_weyl_dimension(p: ParabolicSpec, label: Weight) -> int:
    """The dimension of the irreducible g_0-module of highest weight
    ``label``: Weyl's product over the positive roots of sigma height 0.
    The rho of g serves, since rho - rho_0 is orthogonal to every root of
    g_0."""
    return _weyl_product(p.rs, label, [a for a in p.rs.pos_roots if sigma_height(p, a) == 0])


class WeylElt:
    """Weyl group element with its action matrices and a lex-least reduced word:
    ``word`` in 1-based simple reflection indices, ``mat_root`` the action on
    simple-root coordinates, ``mat_weight`` on fundamental coordinates."""

    def __init__(self, rs: RootSystem, word: tuple[int, ...],
                 mat_root: tuple[tuple[int, ...], ...], mat_weight: tuple[tuple[int, ...], ...]):
        self.rs, self.word, self.mat_root, self.mat_weight = rs, word, mat_root, mat_weight

    def act_weight(self, lam: Weight) -> Weight:
        return tuple(
            sum(self.mat_weight[i][j] * lam[j] for j in range(self.rs.rank))
            for i in range(self.rs.rank)
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


def parabolic_hasse(p: ParabolicSpec) -> list[list[WeylElt]]:
    """W^p graded by length: w with w^{-1}(alpha_j) > 0 for every uncrossed j.

    Level n holds the length-n elements, sorted by reduced word, each with
    its lex-least reduced word. Row j of ``w.mat_weight`` holds the coroot
    coordinates of w^{-1}(alpha_j^vee), which is positive exactly when
    w^{-1}(alpha_j) is; a root is positive or negative, so the test is that
    the row has a positive entry, and no inverse is built.

    W^p is grown level by level and W is never enumerated: level n + 1
    holds the new w s_i, for w on level n, that pass the test. Every prefix
    of a reduced word of an element of W^p is in W^p (if s_j u < u for an
    uncrossed j, then s_j u v < u v), so this reaches all of W^p, and the
    lex-least reduced word of w s_i is found first from the level sorted by
    word. The root matrix identifies an element, so the weight matrix is
    multiplied out only for one not seen before. More than
    ``MAX_HASSE_ELEMENTS`` elements raise NotFiniteType.
    """
    rs = p.rs
    uncrossed0 = [j - 1 for j in p.uncrossed]
    simples = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    e = identity_weyl(rs)
    seen = {e.mat_root}
    levels = [[e]]
    count = 1
    while True:
        nxt: list[WeylElt] = []
        for w in levels[-1]:
            for s in simples:
                mat_root = _matmul_int(w.mat_root, s.mat_root)
                if mat_root in seen:
                    continue
                seen.add(mat_root)
                mat_weight = _matmul_int(w.mat_weight, s.mat_weight)
                if not all(max(mat_weight[j]) > 0 for j in uncrossed0):
                    continue
                nxt.append(WeylElt(rs=rs, word=w.word + s.word, mat_root=mat_root,
                                   mat_weight=mat_weight))
                count += 1
                if count > MAX_HASSE_ELEMENTS:
                    raise NotFiniteType(f"W^p larger than cap {MAX_HASSE_ELEMENTS}")
        if not nxt:
            return levels
        nxt.sort(key=lambda w: w.word)
        levels.append(nxt)


def affine_dot_action(w: WeylElt, lam: Weight) -> Weight:
    """rho-shifted action w.lam = w(lam+rho)-rho in fundamental coordinates."""
    rho = w.rs.rho
    shifted = tuple(a + b for a, b in zip(lam, rho))
    img = w.act_weight(shifted)
    return tuple(a - b for a, b in zip(img, rho))


def dominant_representative_for(rs: RootSystem, nodes: tuple[int, ...], lam: Weight) -> Weight:
    """Dominant representative under the subgroup generated by the given
    1-based nodes (plain, unshifted action); under all of W for
    ``range(1, rs.rank + 1)``."""
    cur = tuple(lam)
    while True:
        i = next((j for j in nodes if cur[j - 1] < 0), None)
        if i is None:
            return cur
        cur = rs.reflect_weight(i - 1, cur)
