"""Reference enumeration of the Weyl group and the full-W filter for W^p.

``artifact.rootspace.parabolic_hasse`` grows W^p level by level from the
identity and never enumerates W. The references here are what it replaced:
``enumerate_weyl`` lists all of W by length, each element with its lex-least
reduced word, and ``reference_parabolic_hasse`` keeps the elements of W that
pass the W^p test. The tests compare the two level by level and word by
word, and use ``enumerate_weyl`` wherever they need all of W.

``leading_minors`` is the Sylvester oracle for the positive-definiteness
check of ``build_root_system``, which reads the minors off the pivots of one
integer Bareiss pass: here each minor is its own ``Fraction`` elimination.
"""

from __future__ import annotations

from fractions import Fraction

from artifact.rootspace import (
    NotFiniteType,
    ParabolicSpec,
    RootSystem,
    RootSystemNotCertified,
    WeylElt,
    _matmul_int,
    identity_weyl,
    simple_reflection,
)


def enumerate_weyl(rs: RootSystem, max_elements: int = 200000) -> list[WeylElt]:
    """All of W, BFS by length, lex-least reduced word per element. The
    root matrix of w s_i identifies it, so the weight matrix is multiplied
    out only for an element not seen before."""
    simples = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    e = identity_weyl(rs)
    seen = {e.mat_root}
    frontier = [e]
    out = [e]
    while frontier:
        nxt: list[WeylElt] = []
        for w in frontier:
            for s in simples:
                mat_root = _matmul_int(w.mat_root, s.mat_root)
                if mat_root in seen:
                    continue
                seen.add(mat_root)
                w2 = WeylElt(rs=rs, word=w.word + s.word, mat_root=mat_root,
                             mat_weight=_matmul_int(w.mat_weight, s.mat_weight))
                nxt.append(w2)
                out.append(w2)
                if len(out) > max_elements:
                    raise NotFiniteType(f"Weyl group larger than cap {max_elements}")
        nxt.sort(key=lambda w: w.word)
        frontier = nxt
    return out


def reference_parabolic_hasse(p: ParabolicSpec) -> list[list[WeylElt]]:
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
            levels.setdefault(len(w.word), []).append(w)
    if not levels:
        return []
    top = max(levels)
    if set(levels) != set(range(top + 1)):
        raise RootSystemNotCertified("Hasse diagram of W^p has a gap in lengths")
    return [sorted(levels[n], key=lambda w: w.word) for n in range(top + 1)]


def _det(M: list[list]) -> Fraction:
    """Determinant by Fraction elimination with row exchanges."""
    n = len(M)
    M = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, n):
            if M[r][c]:
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


def leading_minors(S: list[list[int]]) -> list[Fraction]:
    """The leading principal minors det S[:k, :k], k = 1..n, each from an
    elimination of its own."""
    return [_det([row[:k] for row in S[:k]]) for k in range(1, len(S) + 1)]
