"""Lie algebra cohomology of g_- with module coefficients, Hodge theory.

Cochain spaces are C^n = Lambda^n p_+ (x) V with the wedge basis (increasing
tuples of p_+ root positions, in lex order) and V's own basis, row-major.
The complex is zero outside 0..top = dim p_+, and ``CochainComplex`` stores
both zero ends, so every level reads its neighbours the same way. It holds
every level's weights, d and dstar for the whole job, and a window of two
adjacent levels, each Lambda^n p_+ with its p-action and the bare wedges
eps_a: Lambda^{n-1} -> Lambda^n. The p-action on C^n is the Kronecker sum
of Lambda^n's and V's, and the wedge on C^n is eps_a (x) 1_V; both are
placed as assembler blocks where they are read, and neither is stored.
This module is the one home of the wedge. Every cochain matrix is a sum of
Kronecker products of V's matrices with the unit wedges
eps_a: Lambda^n -> Lambda^{n+1}, eps_a(I) = (-1)^k I', where I' is I with a
inserted at position k (zero when a is in I), and with their transposes
iota_a = eps_a^T, the contractions with the dual basis. Both are signed
index maps, one +-1 per column, with eps_a eps_b + eps_b eps_a = 0 and
iota_a eps_b + eps_b iota_a = delta_ab.

Let ad(Z)_ij be the matrix of Z in p on p_+, let [e_a, e_b] = sum_m e^m_ab e_m,
so e^m_ab is entry (m, b) of ad e_a (``g.pplus_action``), and let
d_a = (e_a|f_a) (``g.pairing_d``) for the normalised invariant form
(x|y) = B(x, y) / 2h^vee, which pairs g_- with p_+ (d_a = 1 on a long root).
Then

  Z on C^n = (sum_ij ad(Z)_ij eps_i iota_j) (x) 1 + 1 (x) Z,
  d_n      = S_{n+1}^{-1} [sum_a eps_a (x) f_a
                           + sum_{a<b,m} e^m_ab eps_a eps_b iota_m (x) 1] S_n,
  dstar_n  = -sum_a iota_a (x) e_a - sum_{a<b,m} e^m_ab eps_m iota_b iota_a (x) 1,
  G_n      = ((-1)^n / n!) diag(prod_{a in I} d_a) (x) Gram_V,

with S_n = diag(prod_{a in I} d_a / n!) on Lambda^n. Wedges are identified
with alternating maps on g_- through the det-pairing with a 1/n! prefactor,
and S_n transports the classical formula for d to that identification. Its
bracket term - sum c^m_ab eps_a eps_b iota_m, for [f_a, f_b] = sum c^m_ab f_m,
is the one above: the Chevalley involution e_r -> -f_r is an automorphism
(`gradedla` fixes N(-r, -s) = -N(r, s)), so c^m_ab = -e^m_ab. So both maps
read one list of the e^m_ab, and no bracket of g_- is taken. S_n is never
a matrix: S_{n+1}^{-1} eps_a S_n = ((n+1) / d_a) eps_a, so each term
of d_n is a scalar times eps_a or eps_a eps_b iota_m. The level inner
products G_n make dstar the exact adjoint of d. The sign (-1)^n is forced by
that adjointness; the products are definite on each level, alternating in
sign. On A, D and E every d_a is 1: S_n = 1 / n!, every scalar of d_n is an
int and G_n = ((-1)^n / n!) 1 (x) Gram_V. Pairing by B itself would divide
d_n by 2h^vee and multiply G_n by (2h^vee)^n, and leave dstar, every kernel,
image and rank, and so the Hodge split and the harmonic basis, as they are.

The Hodge splitting im d + ker box + im dstar, harmonic cohomology modules,
and the weight-multiset oracle for their components live here. The
splitting builds no Laplacian: its harmonic part ker box is ker d ∩ ker dstar,
solved on the weights the two images leave uncovered (``hodge_decompose``).
The maps it reads are certified to preserve weight, so the image bases of
every weight are read off one elimination of the whole d_{n-1} and one of
the whole dstar_n. The split is certified a basis one weight at a time, by
the rank of each square weight block [im d | ker box | im dstar] it is built
from, on every weight where two or more of the three bases meet (one basis
alone is independent by construction). Only ker box and the blocks of the
weights with harmonic room are kept (``Cohomology``): the harmonic
projection pi_H along im d + im dstar is block diagonal by weight, and is
read per weight off the certificate's blocks. The Laplacian
box = d dstar + dstar d appears only restricted to a generated submodule,
where it is dstar d (``bggcore.GeneratedSubmodule.box_on_e``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial, prod

from .gradedla import GradedLieAlgebra
from .linalg import Q, SpMat, kron_blocks
from .repmod import (
    DimensionOverBudget,
    PModule,
    action_on_span,
    positions_by_weight,
    tensor_weights,
)
from .rootspace import Weight, affine_dot_action, dominant_representative_for, parabolic_hasse


class DegreeOverflow(Exception):
    """A level, or a wedge insertion, outside the complex."""


class ComplexNotCertified(Exception):
    """A map of the complex does not preserve weight, or the Hodge splitting
    is not a basis."""


class CochainComplex:
    """``weights[n]`` is the weight of each coordinate of C^n,
    ``dels[n]``: C^n -> C^{n+1}, ``delstars[n]``: C^{n+1} -> C^n, and
    ``wedge_tuples[n]`` is the wedge basis of Lambda^n, each keyed by the
    level n. The complex is zero outside 0..top and holds both zero ends:
    C^{-1} = C^{top+1} = 0 (dim 0, no weights, no wedge tuples, 0x0
    actions), with d_{-1}, dstar_{-1}, d_top and dstar_top zero maps. So
    every level reads n - 1 and n + 1 alike, and no reader branches on an
    end.

    Neither the p-action on C^n nor the wedge eps_a (x) 1_V on it is ever a
    stored matrix. P acts on Lambda^n p_+ (x) V through the tensor product,
    so A^n_Z = L_Z (x) 1 + 1 (x) M_Z, the Kronecker sum of Z's matrix L_Z on
    Lambda^n p_+ (``wedge_module(n)``) and its matrix M_Z on V. Every reader
    places it as assembler blocks (``action_blocks``, `linalg.kron_blocks`):
    as plain blocks inside a signed sum, or as A^n_Z X for a matrix X on the
    right (``act``). Likewise every reader places eps_a (x) 1_V, or
    (eps_a (x) 1_V) X, from the bare wedge eps_a (``bare_wedges``) with
    `linalg.kron_blocks`.

    The complex keeps across a job only what the job reads. The weights,
    d and dstar of every level are always held, and V's matrices with V.
    Besides those it keeps one cache: a window of two levels. Record n of
    the window holds Lambda^n p_+ and the bare wedges
    eps_a: Lambda^{n-1} -> Lambda^n its action is built from, both built on
    the first use of either, and building a record drops every record but
    the one built last. ``wedge_module(n)`` reads record n, and
    ``bare_wedges(n)`` record n + 1. `build_bgg_diagram` asks for level
    n + 1 before it runs the checks and the sources of level n, which read
    records n and n + 1 only, so a whole run builds each level once, from 0
    to top. The inner product G_n is built where it is read, on each call
    of ``inner(n)``: only the adjointness check reads it, one level after
    another."""

    def __init__(self, g: GradedLieAlgebra, V: PModule,
                 weights: dict[int, tuple[Weight, ...]], wedge_tuples: dict[int, list[tuple]],
                 dels: dict[int, SpMat], delstars: dict[int, SpMat]):
        self.g, self.V = g, V
        self.weights, self.wedge_tuples = weights, wedge_tuples
        self.dels, self.delstars = dels, delstars
        self._window: dict[int, tuple[PModule, list[SpMat]]] = {}

    @property
    def top(self) -> int:
        return len(self.g.pplus_roots)

    def dim(self, n: int) -> int:
        return len(self.weights[n])

    def _level(self, n: int) -> tuple[PModule, list[SpMat]]:
        """Record n of the window, (Lambda^n p_+, [eps_a: Lambda^{n-1} ->
        Lambda^n]), for -1 <= n <= top + 1 (zero maps and the zero module at
        both ends), built on first use and kept while it is one of the two
        records built last (the class docstring)."""
        if not -1 <= n <= self.top + 1:
            raise DegreeOverflow(f"no level {n} in the complex (top {self.top})")
        if n not in self._window:
            # the older record goes before n is built, so two are alive at most
            self._window = dict(list(self._window.items())[-1:])
            # Lambda^{-2} = 0 as well
            eps = wedge_maps(self.wedge_tuples.get(n - 1, []), self.wedge_tuples[n], self.top)
            lam = _wedge_module(self.g, len(self.wedge_tuples[n]), eps,
                                [e.transpose() for e in eps])
            self._window[n] = (lam, eps)
        return self._window[n]

    def wedge_module(self, n: int) -> PModule:
        """Lambda^n p_+ with its p-action, for -1 <= n <= top + 1: record n
        of the window."""
        return self._level(n)[0]

    def bare_wedges(self, n: int) -> list[SpMat]:
        """The bare wedges eps_a: Lambda^n -> Lambda^{n+1} for every p_+ root
        position a, for -1 <= n <= top (zero maps at both ends): record
        n + 1 of the window."""
        if not -1 <= n <= self.top:
            raise DegreeOverflow(f"cannot wedge out of level {n} (top {self.top})")
        return self._level(n + 1)[1]

    def action_blocks(self, n: int, lab, c=1, right: SpMat | None = None, col_off: int = 0):
        """The assembler blocks of c A^n_Z, Z = ``lab``, on C^n, or of
        c A^n_Z @ right: `linalg.kron_blocks` of the pairs (L_Z, dim V) and
        (dim Lambda^n, M_Z), for Z's matrices L_Z on Lambda^n p_+ and M_Z on V."""
        lam, V = self.wedge_module(n), self.V
        return kron_blocks((lam.actions[lab], V.dim), (lam.dim, V.actions[lab]),
                           c=c, right=right, col_off=col_off)

    def act(self, n: int, labels: list, x: SpMat) -> SpMat:
        """A^n_Z @ x for each Z in ``labels``, side by side (x.ncols columns
        each), in one assembly."""
        w = x.ncols
        return SpMat.assemble(self.dim(n), w * len(labels), (
            b for t, lab in enumerate(labels)
            for b in self.action_blocks(n, lab, right=x, col_off=t * w)
        ))

    def inner(self, n: int) -> SpMat:
        """G_n = ((-1)^n / n!) diag(prod_{a in I} d_a) (x) Gram_V on C^n,
        built on each call and not kept."""
        dd = self.g.pairing_d
        diag = SpMat.diagonal([prod(dd[a] for a in t) for t in self.wedge_tuples[n]])
        dim = self.dim(n)
        return SpMat.assemble(dim, dim, kron_blocks((diag, self.V.gram),
                                                    c=Q((-1) ** n, factorial(n))))


def wedge_maps(lower: list[tuple], upper: list[tuple], d: int) -> list[SpMat]:
    """The unit wedges eps_a: Lambda^n -> Lambda^{n+1}, a < d, between the
    wedge bases ``lower`` of Lambda^n and ``upper`` of Lambda^{n+1}: row J of
    eps_a holds (-1)^k at the column of J less its k-th entry a."""
    idx = {t: k for k, t in enumerate(lower)}
    entries: list[dict] = [{} for _ in range(d)]
    for row, J in enumerate(upper):
        for k, a in enumerate(J):
            entries[a][row, idx[J[:k] + J[k + 1:]]] = -1 if k & 1 else 1
    return [SpMat.from_entries(len(upper), len(lower), e) for e in entries]


def check_chain_budget(d: int, dim_v: int, max_dim: int) -> None:
    """Raise DimensionOverBudget when the largest level of the complex over
    a p_+ of dimension d, dim C^{d // 2} = C(d, d // 2) dim_v, exceeds
    max_dim. It reads no wedge and no structure constant, so a job is
    refused before either is built."""
    widest = comb(d, d // 2) * dim_v
    if widest > max_dim:
        raise DimensionOverBudget(f"dim C^{d // 2} = {widest} exceeds budget {max_dim}")


def build_cochain_complex(g: GradedLieAlgebra, V: PModule) -> CochainComplex:
    """The weights of every level, and all differentials and codifferentials,
    in the operator form of the module docstring, with the zero ends of
    ``CochainComplex``. The bracket terms of both read one list of the
    e^m_ab, a < b, since [f_a, f_b] = -sum_m e^m_ab f_m. One loop from
    n = -1, starting from the zero maps eps_a: Lambda^{-2} -> Lambda^{-1},
    builds d_n and dstar_n, so the wedges eps_a on only two adjacent levels
    are alive at a time. No p-action and no G_n is built here: the complex
    builds each Lambda^n p_+ with its bare wedges in its window
    (``CochainComplex.wedge_module``), and G_n where it is read. It takes no
    budget: `bggcore.build_bgg_diagram` checks the chain budget
    (``check_chain_budget``) before V's p-action exists.

    V must carry g_- actions and a contravariant Gram (restrict_to_parabolic
    provides both).
    """
    if not V.has_gminus():
        raise ValueError("coefficient module lacks g_- actions")
    if V.gram is None:
        raise ValueError("coefficient module lacks a contravariant Gram")
    d = len(g.pplus_roots)
    roots, dd = g.pplus_roots, g.pairing_d
    # e^m_ab for a < b: entry (m, b) of ad e_a on p_+
    consts = [(a, m, b, c) for a, r in enumerate(roots)
              for m, b, c in g.pplus_action[("e", r)].entries() if b > a]
    f_act = [V.actions[("f", r)] for r in roots]
    e_act = [V.actions[("e", r)] for r in roots]
    tuples = {-1: [], **{n: list(combinations(range(d), n)) for n in range(d + 2)}}
    weights = {n: tensor_weights(_wedge_weights(g, t), V.weights) for n, t in tuples.items()}
    eps_lo = iota_lo = wedge_maps([], [], d)  # eps_a: Lambda^{n-1} -> Lambda^n, and iota_a
    dels, delstars = {}, {}
    for n in range(-1, d + 1):
        lam, up = len(tuples[n]), len(tuples[n + 1])
        eps_hi = wedge_maps(tuples[n], tuples[n + 1], d)
        iota_hi = [e.transpose() for e in eps_hi]
        # d_n: S_{n+1}^{-1} eps_a S_n = ((n + 1) / d_a) eps_a, and
        # S_{n+1}^{-1} eps_a eps_b iota_m S_n = ((n + 1) d_m / (d_a d_b)) eps_a eps_b iota_m
        blocks = [b for a in range(d)
                  for b in kron_blocks((eps_hi[a], f_act[a]), c=Q(n + 1) / dd[a])]
        brackets = SpMat.assemble(up, lam, [
            (0, 0, Q((n + 1) * c * dd[m]) / (dd[a] * dd[b]), (eps_hi[a], eps_lo[b] @ iota_lo[m]))
            for a, m, b, c in consts
        ])
        blocks.extend(kron_blocks((brackets, V.dim)))
        dels[n] = SpMat.assemble(up * V.dim, lam * V.dim, blocks)
        # dstar_n
        blocks = list(kron_blocks(*zip(iota_hi, e_act), c=-1))
        brackets = SpMat.assemble(lam, up, [
            (0, 0, c, (eps_lo[m] @ iota_lo[b], iota_hi[a])) for a, m, b, c in consts
        ])
        blocks.extend(kron_blocks((brackets, V.dim), c=-1))
        delstars[n] = SpMat.assemble(lam * V.dim, up * V.dim, blocks)
        eps_lo, iota_lo = eps_hi, iota_hi
    return CochainComplex(
        g=g, V=V, weights=weights, wedge_tuples=tuples,
        dels=dels, delstars=delstars,
    )


def _wedge_module(g: GradedLieAlgebra, dim: int, eps: list[SpMat],
                  iota: list[SpMat]) -> PModule:
    """Lambda^n p_+, of dimension ``dim``, with Z acting by
    sum_ij ad(Z)_ij eps_i iota_j for the unit wedges eps_a:
    Lambda^{n-1} -> Lambda^n and their transposes iota_a (zero maps when
    n <= 0, so Lambda^0 and Lambda^{-1} = 0 take the same sum). Its weights
    are not kept: the complex holds those of C^n."""
    return PModule(
        g=g, dim=dim,
        actions={
            lab: SpMat.assemble(dim, dim, [(0, 0, c, (eps[i], iota[j]))
                                           for i, j, c in ad.entries()])
            for lab, ad in g.pplus_action.items()
        },
    )


def _wedge_weights(g: GradedLieAlgebra, tuples: list[tuple]) -> tuple[Weight, ...]:
    """The weight of each wedge of ``tuples``: the sum of its p_+ roots."""
    weights = [g.rs.root_to_weight(r) for r in g.pplus_roots]
    zero = (0,) * g.rs.rank
    return tuple(tuple(map(sum, zip(zero, *(weights[a] for a in t)))) for t in tuples)


def hodge_decompose(cc: CochainComplex, n: int) -> tuple[SpMat, tuple[Weight, ...], list[tuple]]:
    """C^n = im d + ker box + im dstar, blocked by full weight, as
    (ker_box, weights, blocks): the harmonic basis placed in C^n, the weight
    of each of its columns, and for each weight mu with harmonic room one
    (rows, bd, kb, bs), the positions of mu in C^n and the bases of
    im d_{n-1}, ker box and im dstar_n on them, together a square block.

    No Laplacian is built. The maps the split reads, d_k and dstar_k for
    k = n - 1 and n, are first certified to preserve weight
    (``_check_weight_preserving``), so each is block diagonal by weight
    after a permutation. The image bases then come from one forward
    elimination of the whole d_{n-1} and one of the whole dstar_n: a column
    is a pivot exactly when it is not in the span of the columns before it,
    and on a block-diagonal map that holds block by block, so the level's
    pivots of weight mu are the first independent columns of the mu block,
    and the basis on mu is that block's submatrix on them. The harmonic part
    ker box = ker d_n ∩ ker dstar_{n-1} is solved only on the room the two
    images leave, |mu| - rank(im d) - rank(im dstar), as the kernel of the
    stacked blocks [dstar_{n-1}; d_n] on the mu columns. A weight with no
    room has no harmonic part, and its kernel conditions are neither sliced
    nor eliminated. Levels 0 and top take the same code: the maps out of and
    into C^{-1} = C^{top+1} = 0 are stored zero maps, whose weight blocks
    have no rows or no columns.

    The certificate ranks the blocks the split is built from, each in the
    loop, as soon as it is built. Each weight's block
    [im d | ker box | im dstar] is square (the kernel fills the room
    exactly, or ``ComplexNotCertified`` is raised) and every column of it
    lies on the rows of its own weight, so the three bases together are a
    basis of C^n exactly when the block-diagonal matrix of these blocks has
    full rank, that is when every block has; a block of lower rank raises
    ``ComplexNotCertified`` at its weight. No dim C^n x dim C^n matrix is
    assembled, and the image bases of a weight with no harmonic room are
    dropped once their block is certified.

    Why the rank runs only where two or more bases meet: a weight that one
    basis fills alone has that basis as its block, and each basis is
    independent by construction. The image bases are pivot columns of a
    weight-preserving map, independent on the rows of their weight, and
    ``kernel_basis`` is the identity on the free variables. Ranking such a
    block would repeat the elimination that chose its columns.

    Why skipping is exact: let v be in ker d_n ∩ ker dstar_{n-1} of weight
    mu. By adjointness, dstar_k^T G_k = G_{k+1} d_k, so v is G_n-orthogonal
    to im d_{n-1} and to im dstar_n. With no room, those two images span the
    weight space of mu (the certificate above). G_n = +-diag(prod_a d_a)
    (x) Gram_V pairs each weight space with itself, and its block there is
    nondegenerate, since ``build_irrep`` certifies the contravariant Gram of
    each weight space nonsingular by its rank. So v = 0.

    ``kernel_basis`` is canonical (it depends only on the subspace), so the
    harmonic basis is the one the kernel of each Laplacian block gives."""
    dim = cc.dim(n)
    pos = {k: positions_by_weight(cc.weights[k]) for k in (n - 1, n, n + 1)}
    _check_weight_preserving(cc, n, pos)
    by_weight, below, above = pos[n], pos[n - 1], pos[n + 1]
    d_piv = set(cc.dels[n - 1].independent_columns())
    s_piv = set(cc.delstars[n].independent_columns())
    weights: list[Weight] = []
    harmonic: list[tuple] = []

    for mu in sorted(by_weight):
        rows = by_weight[mu]
        m = len(rows)
        lo, hi = below.get(mu, []), above.get(mu, [])
        bd = cc.dels[n - 1].submatrix(rows, [j for j in lo if j in d_piv])
        bs = cc.delstars[n].submatrix(rows, [j for j in hi if j in s_piv])
        kb = SpMat(m, 0)
        room = m - bd.ncols - bs.ncols
        if room < 0:
            raise ComplexNotCertified(
                f"im d and im dstar overfill weight {mu} of C^{n}"
            )
        if room:
            kb = SpMat.vstack([cc.delstars[n - 1].submatrix(lo, rows),
                               cc.dels[n].submatrix(hi, rows)]).kernel_basis()
            if kb.ncols != room:
                raise ComplexNotCertified(
                    f"harmonic part of weight {mu} of C^{n} has dimension "
                    f"{kb.ncols}, the images leave {room}"
                )
            weights.extend([mu] * room)
            harmonic.append((rows, bd, kb, bs))
        # one basis filling the weight alone is independent (the docstring)
        if max(bd.ncols, kb.ncols, bs.ncols) < m and SpMat.hstack([bd, kb, bs]).rank() != m:
            raise ComplexNotCertified(f"Hodge splitting of C^{n} is not a basis")
    ker_box = SpMat.hstack([SpMat(dim, 0)] + [kb.place_rows(rows, dim)
                                              for rows, _, kb, _ in harmonic])
    return ker_box, tuple(weights), harmonic


def _check_weight_preserving(cc: CochainComplex, n: int,
                             pos: dict[int, dict[Weight, list[int]]]) -> None:
    """Raise ComplexNotCertified, naming the map and its level, unless d_k
    and dstar_k preserve weight for k = n - 1 and n, the maps the split of
    C^n reads: every row of weight mu has its entries on the columns of
    weight mu only, compared as sets. ``pos[k]`` is the positions of each
    weight of C^k, for k = n - 1, n and n + 1. The split slices the maps by
    weight and reads each weight's pivots off the whole level, so an entry
    off the weight blocks would otherwise be dropped unseen."""
    cols = {k: {mu: set(p) for mu, p in by.items()} for k, by in pos.items()}
    none = frozenset()
    for k in (n - 1, n):
        for name, mat, src, dst in (("d", cc.dels[k], k, k + 1),
                                    ("dstar", cc.delstars[k], k + 1, k)):
            if not mat.rows_within([cols[src].get(mu, none) for mu in cc.weights[dst]]):
                raise ComplexNotCertified(f"{name}_{k} does not preserve weight")


class Cohomology:
    """Harmonic model of H^n(g_-, V): a g_0-module with p_+ acting by zero.
    ``ker_box`` embeds its basis into C^n, and ``blocks`` holds, for each
    weight with harmonic room, the square certified block of the Hodge split
    on it, as ``hodge_decompose`` returns them. A diagram holds two records
    at a time, H^n and H^{n+1}, while level n is read
    (`bggcore.build_bgg_diagram`)."""

    def __init__(self, n: int, module: PModule, ker_box: SpMat, blocks: list[tuple]):
        self.n, self.module, self.ker_box, self.blocks = n, module, ker_box, blocks
        self._projection: SpMat | None = None

    def harmonic_projection(self) -> SpMat:
        """pi_H: C^n -> harmonic coordinates, along im d + im dstar, computed
        on first use and kept. The Hodge basis is block diagonal by weight,
        so pi_H is too, and it is read per weight off the certificate's
        blocks: on weight mu it is the ker box rows of B_mu^{-1}, for the
        square block B_mu = [im d | ker box | im dstar], solved as
        B_mu^T X = the ker box columns of the identity. A weight with no
        harmonic room has no ker box rows, so its columns of pi_H are zero."""
        if self._projection is None:
            dim = self.ker_box.nrows
            cols = [SpMat(dim, 0)]
            for rows, bd, kb, bs in self.blocks:
                unit = SpMat.identity(kb.ncols).place_rows(
                    list(range(bd.ncols, bd.ncols + kb.ncols)), len(rows))
                x = SpMat.hstack([bd, kb, bs]).transpose().solve(unit)
                cols.append(x.place_rows(rows, dim))
            self._projection = SpMat.hstack(cols).transpose()
        return self._projection


def cohomology_module(cc: CochainComplex, n: int) -> Cohomology:
    """H^n as the g_0-module ker box, with p_+ acting by zero. The g_0
    images of ker box are one assembly of product blocks (``cc.act``), and
    `action_on_span` solves them against it at once."""
    K, weights, blocks = hodge_decompose(cc, n)
    m = K.ncols
    labels = cc.g.p_labels
    # g_0 preserves ker box, and p_+ acts on its cohomology by zero
    levi = [lab for lab in labels if cc.g.grade_of(lab) <= 0]
    acts = action_on_span(K, cc.act(n, levi, K), levi)
    mod = PModule(g=cc.g, dim=m, weights=weights,
                  actions={lab: acts.get(lab, SpMat(m, m)) for lab in labels})
    return Cohomology(n=n, module=mod, ker_box=K, blocks=blocks)


def kostant_oracle(g: GradedLieAlgebra, lam_mod: Weight) -> list[list[Weight]]:
    """Predicted component labels of H^n(g_-, V(lam_mod)) per level n.

    Level n collects w.(lam*) for the length-n elements of W^p, where lam* is
    the dominant representative of -lam_mod; sorted lexicographically.
    """
    rs = g.rs
    lam_star = dominant_representative_for(
        rs, range(1, rs.rank + 1), tuple(-x for x in lam_mod)
    )
    levels = parabolic_hasse(g.par)
    return [
        sorted(affine_dot_action(w, lam_star) for w in lvl) for lvl in levels
    ]

