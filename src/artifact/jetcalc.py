"""First jet prolongations and semi-holonomic jet modules.

J^1(V) sits on coordinates [V; p_+ (x) V] (footpoint first, then one slot per
p_+ basis root in positive-root order). Every homogeneous Z in p acts by one
formula,

  Z.(v, Z_1 (x) v_1) = (Z.v, Z_1 (x) Z.v_1 + [Z, Z_1] (x) v_1
                          + sum_{|eta_a| <= |Z|} eta_a (x) [Z, xi_a].v),

whose last sum is empty for grade zero; consistency of the induced higher
grade actions with commutators is a test, not an assumption.

Jbar^k(V) is the equalizer of the two maps J^1(Jbar^{k-1}) -> J^1(Jbar^{k-2})
(J^1 of the truncation, and the footpoint followed by the embedding of
Jbar^{k-1}); call their difference diff. It is built on the free direct sum
DS_k = (+)_{j<=k} (x)^j p_+ (x) V. The structural embedding
iota: DS_k -> J^1(Jbar^{k-1}) has a single 1 in every ambient row q, at
column phi[q]: footpoint rows keep their DS index, and row (slot a, DS
coordinate t) goes to eta_a (x) t. Its section sel reads the footpoint for
DS slots 0..k-1 and the tensor part for slot k (ambient rows pick[p]).

So A @ iota is the J^1 action A with its columns renamed by phi (collisions
summed), and the action on Jbar^k is the rows pick[p] of it: a gather, with
nothing multiplied. Each extension certifies, with a named error when one
fails,

  (1) diff o iota = 0: for each row (b, l) of J^1(Jbar^{k-2}), its two unit
      vectors e_{b, l} and e_{phi_{k-1}(b, l)} land on one DS column;
  (2) sel o iota = id: phi[pick[p]] = p;
  (3) rank diff = dim J^1(Jbar^{k-1}) - dim DS_k: each nonzero row of diff
      is a tensor unit vector minus a footpoint unit vector and owns a column
      no other row touches, so the rank is the number of such rows;
  (4) every label preserves the image: row q of A @ iota equals row phi[q]
      of the new action, i.e. A o iota = iota o A_new.

By (1) and (2) iota is an injection into ker diff, by (3) it spans it, and
by (4) the gathered action is the restriction of the J^1 action to the
equalizer. This is the equalizer-kernel construction exactly, with the
kernel computed from index maps instead of by elimination.

Maps prolong along the same embedding. For f defined on Jbar^{k-1},
prolong(f, Jbar^k) = J^1(f) o iota is J^1(f) with its columns merged by phi,
so phi is the one encoding of iota that both the modules and the maps use.

A map on Jbar^k can be certified from the left, without the action of
Jbar^k. Let D = Dt o iota (Dt with its columns merged by phi) for Dt defined
on J^1(Jbar^{k-1}). Then D o A_Z = Dt o A^{J^1}_Z o iota by (4), and
Dt o A^{J^1}_Z is `jet1_left_action`: the J^1 formula evaluated on the
column blocks of Dt, on the actions Jbar^{k-1} already has. Condition (4)
need not be checked for this. Jbar^k is the kernel of diff, and the two maps
of diff are P-maps once Jbar^{k-1} is certified (J^1 of the truncation
footpoint o iota_{k-1}, and iota_{k-1} o footpoint), so the J^1 action
preserves it. Conditions (1)-(3) are checked by `equalizer_index_maps`,
which both `_extend` and the left certificate call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gradedla import GradedLieAlgebra, Label
from .linalg import Q, SpMat
from .repmod import DimensionOverBudget, PModule


MAX_JET_DIM = 20000  # default budget on dim Jbar^r


class ShapeMismatch(Exception):
    """Matrix shape incompatible with the declared modules."""


class EqualizerNotCertified(Exception):
    """A semi-holonomic jet failed one of its equalizer certificates."""


@dataclass
class PModMap:
    """Linear map between PModules with an equivariance certificate."""

    source: PModule
    target: PModule
    mat: SpMat = field(repr=False)
    certified: bool = False
    residuals: dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.certified


def check_equivariance(mat: SpMat, source: PModule, target: PModule) -> PModMap:
    """Certify mat as a P-module map; labels checked are those the two
    modules share. Returns the map with certificate or residual matrices."""
    if mat.nrows != target.dim or mat.ncols != source.dim:
        raise ShapeMismatch(
            f"map is {mat.nrows}x{mat.ncols}, expected {target.dim}x{source.dim}"
        )
    residuals = {}
    for lab in source.actions:
        if lab not in target.actions:
            continue
        res = SpMat.assemble(mat.nrows, mat.ncols, [
            (0, 0, 1, (target.actions[lab], mat)), (0, 0, -1, (mat, source.actions[lab])),
        ])
        if not res.is_zero():
            residuals[lab] = res
    return PModMap(
        source=source, target=target, mat=mat,
        certified=not residuals, residuals=residuals,
    )


@dataclass
class JetModule(PModule):
    """J^1 of a PModule; coordinates [base; p_+ (x) base]."""

    base: PModule = None


def _jet1_terms(V: PModule, lab: Label) -> list[tuple]:
    """The action of lab on J^1(V) as block terms (i, j, c, M): c M at block
    (i, j) of the (1 + d) x (1 + d) blocks of size dim V, M None for the
    identity. In the order of the formula in the module docstring: Z on the
    footpoint; Z on each p_+ slot, and (ad Z)_{ij} times the identity at
    block (1 + i, 1 + j); for |eta_a| <= |Z|, (c / d_a) B at block (1 + a, 0)
    for each term c B of [Z, xi_a]."""
    g = V.g
    ad = g.pplus_action()[lab]
    act = V.actions[lab]
    terms = [(0, 0, 1, act)]
    terms.extend((1 + a, 1 + a, 1, act) for a in range(ad.nrows))
    terms.extend((1 + i, 1 + j, c, None) for i, j, c in ad.entries())
    terms.extend((1 + a, 0, c, V.actions[blab]) for a, blab, c in g.xi_brackets(lab))
    return terms


def jet1(V: PModule) -> JetModule:
    """J^1(V), each action assembled from `_jet1_terms`."""
    g = V.g
    roots = g.pplus_roots()
    d = len(roots)
    dv = V.dim
    dim = (1 + d) * dv
    unit = SpMat.identity(dv)
    acts: dict[Label, SpMat] = {}
    for lab in g.p_labels():
        acts[lab] = SpMat.assemble(dim, dim, [
            (i * dv, j * dv, c, unit if m is None else m)
            for i, j, c, m in _jet1_terms(V, lab)
        ])
    e_grades = list(V.e_grades)
    weights = list(V.weights) if V.weights is not None else None
    for a in range(d):
        ga = Q(g.grade_of(("e", roots[a])))
        e_grades.extend([x + ga for x in V.e_grades])
        if weights is not None:
            rw = g.rs.root_to_weight(roots[a])
            weights.extend(
                tuple(x + y for x, y in zip(wv, rw)) for wv in V.weights
            )
    return JetModule(
        g=g, dim=dim, e_grades=tuple(e_grades), actions=acts,
        weights=None if weights is None else tuple(weights),
        base=V,
    )


def jet1_left_action(m: SpMat, V: PModule) -> dict[Label, SpMat]:
    """m @ A_Z for every Z in p, A_Z the action on J^1(V), for m with columns
    on J^1(V), without building A_Z: each term c M at block (i, j) of
    `_jet1_terms` adds c M_i @ M to column block j, M_i the column block i of
    m. Block 0 gets M_0 A_Z + sum (c / d_a) M_{a+1} B, block 1 + j gets
    M_{1+j} A_Z + sum_i (ad Z)_{ij} M_{1+i}."""
    d = len(V.g.pplus_roots())
    dv = V.dim
    if m.ncols != (1 + d) * dv:
        raise ShapeMismatch(f"{m.ncols} columns do not lie on J^1 of a {dv}-dim module")
    cols = [m.select_columns(list(range(b * dv, (b + 1) * dv))) for b in range(1 + d)]
    return {
        lab: SpMat.assemble(m.nrows, m.ncols, [
            (0, j * dv, c, cols[i] if M is None else (cols[i], M))
            for i, j, c, M in _jet1_terms(V, lab)
        ])
        for lab in V.g.p_labels()
    }


def jet1_map_matrix(g: GradedLieAlgebra, fmat: SpMat) -> SpMat:
    """The matrix of J^1(f) without building modules."""
    d = len(g.pplus_roots())
    return SpMat.block_diag([fmat] * (1 + d))


@dataclass
class SemiHolonomicJet:
    """Jbar^r(V) in direct-sum coordinates (+)_{j<=r} (x)^j p_+ (x) V.

    For r >= 2 the structural embedding iota: Jbar^r -> J^1(Jbar^{r-1}) is
    kept as its index map ``phi``: ambient row q carries a single 1, in DS
    column phi[q]. Footpoint rows keep their DS index; the row of slot a and
    DS coordinate t of Jbar^{r-1} goes to eta_a (x) t one tensor degree up.
    ``iota`` is derived on demand, so a kept Jbar holds no ambient module
    alive."""

    r: int
    V: PModule
    module: PModule = field(repr=False)
    slot_dims: tuple[int, ...] = ()
    phi: tuple[int, ...] | None = field(default=None, repr=False)

    @property
    def iota(self) -> SpMat | None:
        """The embedding into J^1(Jbar^{r-1}) (None when r == 1)."""
        if self.phi is None:
            return None
        return SpMat.identity(len(self.phi)).merge_columns(self.phi, self.module.dim)


def prolong(fmat: SpMat, jet: SemiHolonomicJet) -> SpMat:
    """J^1(f) o iota on Jbar^r, for f defined on Jbar^{r-1} (on V when
    r == 1, where this is J^1(f)): J^1(f) with its columns merged by phi."""
    jf = jet1_map_matrix(jet.V.g, fmat)
    if jet.phi is None:
        return jf
    return jf.merge_columns(jet.phi, jet.module.dim)


def _ds_dims(d: int, dv: int, r: int) -> list[int]:
    return [d**j * dv for j in range(r + 1)]


def jbar_dim(d: int, dv: int, r: int) -> int:
    """dim Jbar^r(W) = sum_{j<=r} d^j dim W, for d = dim p_+ and dv = dim W."""
    return sum(_ds_dims(d, dv, r))


def check_jet_budget(V: PModule, r: int, max_dim: int) -> None:
    """Raise DimensionOverBudget when dim Jbar^r(V) exceeds max_dim."""
    total = jbar_dim(len(V.g.pplus_roots()), V.dim, r)
    if total > max_dim:
        raise DimensionOverBudget(
            f"dim Jbar^{r} = {total} exceeds budget {max_dim}"
        )


def semiholonomic(V: PModule, r: int, max_dim: int = MAX_JET_DIM,
                  below: SemiHolonomicJet | None = None) -> SemiHolonomicJet:
    """Jbar^r(V); raises DimensionOverBudget before building anything big.

    With ``below``, a Jbar^s(V) with s <= r built earlier, the tower is
    extended from it instead of from V; the result is the same."""
    if r < 1:
        raise ValueError(f"semi-holonomic order must be >= 1, got {r}")
    if below is not None and (below.V is not V or below.r > r):
        raise ValueError(f"cannot extend Jbar^{below.r} of another module to Jbar^{r}")
    check_jet_budget(V, r, max_dim)
    d = len(V.g.pplus_roots())
    cur = below
    if cur is None:
        cur = SemiHolonomicJet(
            r=1, V=V, module=jet1(V), slot_dims=tuple(_ds_dims(d, V.dim, 1)),
        )
    while cur.r < r:
        cur = _extend(cur)
    return cur


def _certify_index_maps(phi: list[int], pick: list[int], phi_prev,
                        pdim: int, ppdim: int, d: int) -> None:
    """Equalizer conditions (1)-(3) of the module docstring on index maps.

    phi: J^1(Jbar^{k-1}) rows -> Jbar^k columns (iota), pick: its section
    (sel), phi_prev: J^1(Jbar^{k-2}) rows -> Jbar^{k-1} columns (identity
    when k == 2); pdim = dim Jbar^{k-1}, ppdim = dim Jbar^{k-2}."""
    amb_dim = (1 + d) * pdim
    new_dim = len(pick)
    if len(phi) != amb_dim:
        raise EqualizerNotCertified(f"iota has {len(phi)} rows, expected {amb_dim}")
    if len(phi_prev) != (1 + d) * ppdim:
        raise EqualizerNotCertified(
            f"iota of Jbar^(k-1) has {len(phi_prev)} rows, expected {(1 + d) * ppdim}"
        )
    # (2) sel o iota = id
    for p, q in enumerate(pick):
        if phi[q] != p:
            raise EqualizerNotCertified(f"sel o iota moves DS coordinate {p}")
    # Row (b, l) of diff = m_jet - m_foot on J^1(Jbar^{k-2}) is
    # e_{b*pdim + l} - e_{phi_prev(b, l)}.
    nonzero: list[tuple[int, int]] = []
    for qp in range(len(phi_prev)):
        b, l = divmod(qp, ppdim)
        jet_col, foot_col = b * pdim + l, phi_prev[qp]
        # (1) diff o iota = 0: both unit vectors land on one DS column
        if phi[jet_col] != phi[foot_col]:
            raise EqualizerNotCertified(
                f"iota leaves the equalizer in ambient row {jet_col}"
            )
        if jet_col != foot_col:
            nonzero.append((jet_col, foot_col))
    # (3) rank diff = amb_dim - new_dim: rows that each own a column no
    # other row touches are independent, so the rank is their number.
    seen: dict[int, int] = {}
    for row in nonzero:
        for c in row:
            seen[c] = seen.get(c, 0) + 1
    if any(seen[jc] > 1 and seen[fc] > 1 for jc, fc in nonzero):
        raise EqualizerNotCertified("equalizer rows without a private column")
    if len(nonzero) != amb_dim - new_dim:
        raise EqualizerNotCertified(
            f"rank of the equalizer is {len(nonzero)}, expected {amb_dim - new_dim}"
        )


def equalizer_index_maps(prev: SemiHolonomicJet) -> tuple[list[int], list[int]]:
    """phi (iota) and pick (sel) of Jbar^k in J^1(Jbar^{k-1}), for prev =
    Jbar^{k-1}, certified by conditions (1)-(3) of the module docstring.
    Index arithmetic only; dim Jbar^k = len(pick)."""
    d = len(prev.V.g.pplus_roots())
    dv = prev.V.dim
    k = prev.r + 1
    pdim = prev.module.dim
    dims = _ds_dims(d, dv, k)
    offs = [sum(dims[:j]) for j in range(k + 1)]
    # iota: footpoint rows keep their index; slot a, DS coordinate t of
    # block j-1 goes to offs[j] + a*dims[j-1] + t
    phi = list(range(pdim))
    for a in range(d):
        for j in range(1, k + 1):
            base = offs[j] + a * dims[j - 1]
            phi.extend(range(base, base + dims[j - 1]))
    # sel: the footpoint for slots 0..k-1, the tensor part for slot k
    pick = list(range(pdim))
    for a in range(d):
        start = pdim * (1 + a) + offs[k - 1]
        pick.extend(range(start, start + dims[k - 1]))
    phi_prev = prev.phi if prev.phi is not None else range(pdim)
    _certify_index_maps(phi, pick, phi_prev, pdim, offs[k - 1], d)
    return phi, pick


def _extend(prev: SemiHolonomicJet) -> SemiHolonomicJet:
    """One step Jbar^{k-1} -> Jbar^k, certified (module docstring)."""
    V = prev.V
    g = V.g
    k = prev.r + 1
    phi, pick = equalizer_index_maps(prev)
    new_dim = len(pick)
    amb = jet1(prev.module)
    # (4) A o iota = iota o A_new, where A_new is the rows pick of A o iota.
    # Row q = pick[p] holds by (2), as phi[q] = p; the other rows q must
    # equal row phi[q] of A_new.
    others = [q for q, c in enumerate(phi) if pick[c] != q]
    images = [phi[q] for q in others]
    acts = {}
    for lab, A in amb.actions.items():
        restricted = A.merge_columns(phi, new_dim)  # A @ iota
        acts[lab] = restricted.gather_rows(pick)
        if restricted.gather_rows(others) != acts[lab].gather_rows(images):
            raise EqualizerNotCertified(f"{lab} does not preserve the equalizer")
    mod = PModule(
        g=g,
        dim=new_dim,
        e_grades=tuple(amb.e_grades[q] for q in pick),
        actions=acts,
        weights=None if amb.weights is None else tuple(amb.weights[q] for q in pick),
    )
    return SemiHolonomicJet(
        r=k, V=V, module=mod, slot_dims=tuple(_ds_dims(len(g.pplus_roots()), V.dim, k)),
        phi=tuple(phi),
    )
