"""First jets, semi-holonomic prolongations, certified maps."""

import os
import subprocess
import sys

import pytest

from artifact import jetcalc
from artifact.jetcalc import (
    EqualizerNotCertified,
    ShapeMismatch,
    check_equivariance,
    check_jet_budget,
    equalizer_index_maps,
    jet1_left_action,
    jbar_dim,
    semiholonomic,
)
from artifact.linalg import Q, SpMat
from artifact.repmod import DimensionOverBudget, build_irrep, restrict_to_parabolic
from conftest import complex_for, graded
from hodge_reference import reference_level
from linalg_reference import reference_kron
from jet_reference import (
    ambient,
    chain_embedding,
    iota,
    jbar_of_map,
    jet1,
    jet1_map_matrix,
    projection_pair,
    reference_jet1,
    reference_semiholonomic,
    truncation_matrix,
)


def module(label, sigma, lam):
    g = graded(label, sigma)
    return restrict_to_parabolic(build_irrep(g.rs, lam), g)


def assert_representation(g, m):
    for l1 in g.p_labels:
        for l2 in g.p_labels:
            comm = m.actions[l1] @ m.actions[l2] - m.actions[l2] @ m.actions[l1]
            expect = SpMat(m.dim, m.dim)
            for k, c in g.bracket_labels(l1, l2).items():
                expect = expect + m.actions[k].scale(Q(c))
            assert (comm - expect).is_zero(), (l1, l2)


@pytest.mark.parametrize(
    "label,sigma,lam",
    [("A2", (1,), (1, 0)), ("B2", (1,), (0, 0)), ("A2", (1, 2), (1, 0))],
)
def test_jet1_is_representation(label, sigma, lam):
    g = graded(label, sigma)
    V = module(label, sigma, lam)
    assert_representation(g, jet1(V))


def test_jet1_bookkeeping():
    g = graded("A2", (1,))
    V = module("A2", (1,), (1, 0))
    d = len(g.pplus_roots)
    jm = jet1(V)
    assert jm.dim == V.dim * (1 + d)
    assert jm.weights is None


def test_jet1_of_map_identity_and_shape():
    g = graded("A1", (1,))
    V = module("A1", (1,), (2,))
    F = SpMat.from_dense([[Q(i == j) * 3 for j in range(V.dim)] for i in range(V.dim)])
    JM = jet1_map_matrix(g, F)
    d = len(g.pplus_roots)
    expect = SpMat.block_diag([F, reference_kron(SpMat.identity(d), F)])
    assert (JM - expect).is_zero()


def test_check_equivariance_rejects_non_maps():
    V = module("A1", (1,), (1,))
    raising = V.actions[("e", (1,))]
    res = check_equivariance(raising, V, V)
    assert not res.certified
    assert res.residuals
    # the stored residual is A'M - MA itself, and only nonzero ones are kept
    for lab, A in V.actions.items():
        expect = A @ raising - raising @ A
        assert res.residuals.get(lab, SpMat(V.dim, V.dim)) == expect
        assert (lab in res.residuals) == (not expect.is_zero())
    with pytest.raises(ShapeMismatch):
        check_equivariance(SpMat(V.dim + 1, V.dim), V, V)


def test_semiholonomic_r0_is_V():
    # the tower starts at Jbar^0 = V, whose iota into J^1(Jbar^{-1}) = 0 is
    # empty; no order below 0 exists
    V = module("A1", (1,), (1,))
    sh = semiholonomic(V, 0)
    assert (sh.r, sh.V, sh.module, sh.phi) == (0, V, V, ())
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        semiholonomic(V, -1)


def test_semiholonomic_r1_is_jet1():
    V = module("A1", (1,), (1,))
    sh = semiholonomic(V, 1)
    jm = jet1(V)
    assert sh.module.dim == jm.dim
    assert sh.module.actions == jm.actions
    # Jbar^1 = J^1(V): iota is the identity
    assert sh.phi == tuple(range(jm.dim))
    assert iota(sh) == SpMat.identity(jm.dim)


def test_index_maps_over_jbar0_are_the_identity():
    # the step Jbar^0 -> Jbar^1: phi and pick are the identity on J^1(V),
    # and conditions (1)-(3) hold with Jbar^{-1} = 0 (phi_prev empty)
    V = module("A2", (1,), (1, 0))
    d = len(V.g.pplus_roots)
    phi, pick = equalizer_index_maps(semiholonomic(V, 0))
    assert phi == pick == list(range((1 + d) * V.dim))
    jetcalc._certify_index_maps(phi, pick, (), V.dim, 0, d)
    with pytest.raises(EqualizerNotCertified, match="sel o iota"):
        jetcalc._certify_index_maps(phi, pick[::-1], (), V.dim, 0, d)


TOWERS = [
    ("A1", (1,), (1,), 3),
    ("A2", (1,), (0, 0), 2),
    ("B2", (1,), (0, 0), 2),
    ("G2", (1,), (1, 0), 2),
]


@pytest.mark.parametrize("case", [t[:3] for t in TOWERS] + ["C1"],
                         ids=[f"{t[0]}-" + ",".join(map(str, t[2])) for t in TOWERS] + ["G2-C1"])
def test_jet1_matches_tensor_reference(case):
    # the TOWERS modules, and the cochain level C^1 of G2 {1} (1,0) as a
    # tensor module
    V = module(*case) if case != "C1" else reference_level(complex_for("G2", (1,), (1, 0)), 1)
    jm = jet1(V)
    ref = reference_jet1(V)
    assert jm.dim == ref.dim
    assert jm.actions == ref.actions


@pytest.mark.parametrize("case", [t[:3] for t in TOWERS] + ["C1"],
                         ids=[f"{t[0]}-" + ",".join(map(str, t[2])) for t in TOWERS] + ["G2-C1"])
def test_jet1_left_action_is_the_product(case):
    V = module(*case) if case != "C1" else reference_level(complex_for("G2", (1,), (1, 0)), 1)
    jm = jet1(V)
    # every entry distinct, so a block read from the wrong place shows
    m = SpMat.from_entries(2, jm.dim, {
        (i, j): Q(1 + j, 1 + i) for i in range(2) for j in range(jm.dim) if (i + j) % 3
    })
    for mat in (SpMat.identity(jm.dim), m):
        left = jet1_left_action(mat, V, V.g.p_labels)
        assert left.keys() == jm.actions.keys()
        for lab, A in jm.actions.items():
            assert left[lab] == mat @ A, lab
    # only the labels asked for are formed
    last = V.g.p_labels[-1]
    assert jet1_left_action(m, V, [last]) == {last: m @ jm.actions[last]}
    with pytest.raises(ShapeMismatch):
        jet1_left_action(SpMat(1, jm.dim - 1), V, V.g.p_labels)


@pytest.mark.parametrize("label,sigma,lam,r", TOWERS[:3])
def test_semiholonomic_tower(label, sigma, lam, r):
    g = graded(label, sigma)
    V = module(label, sigma, lam)
    d = len(g.pplus_roots)
    sh = semiholonomic(V, r)
    assert sh.module.dim == sum(d**j * V.dim for j in range(r + 1))
    assert_representation(g, sh.module)
    # embedding into J^1(Jbar^{r-1}) is a certified P-map
    emb = check_equivariance(iota(sh), sh.module, ambient(sh))
    assert emb.certified
    # the two projections to J^1(Jbar^{r-2}) coincide on the submodule
    pj, pf = projection_pair(sh)
    assert (pj - pf).is_zero()


@pytest.mark.parametrize("label,sigma,lam,r", TOWERS)
def test_semiholonomic_matches_equalizer_kernel(label, sigma, lam, r):
    V = module(label, sigma, lam)
    sh = semiholonomic(V, r)
    ref = reference_semiholonomic(V, r)
    assert sh.module.dim == ref.module.dim
    assert sh.module.actions == ref.module.actions
    assert iota(sh) == ref.iota


@pytest.mark.parametrize("label,sigma,lam,r", TOWERS)
def test_semiholonomic_extends_from_below(label, sigma, lam, r):
    V = module(label, sigma, lam)
    scratch = semiholonomic(V, r)
    for s in range(r + 1):
        ext = semiholonomic(V, r, below=semiholonomic(V, s))
        assert ext.module.actions == scratch.module.actions
        assert ext.phi == scratch.phi
    with pytest.raises(ValueError):
        semiholonomic(V, 1, below=scratch)
    with pytest.raises(ValueError):
        semiholonomic(module("A1", (1,), (2,)), r, below=scratch)


def expect_tampered_ambient_refused():
    """Extend Jbar^1 to Jbar^2 through a J^1(Jbar^1) whose action has one
    ambient row changed, by one more term in the J^1 formula `_extend`
    assembles; the equalizer certificate must refuse it. Uses no assert, so
    it also checks under python -O."""
    V = module("A1", (1,), (1,))
    below = semiholonomic(V, 1)
    honest = jetcalc._jet1_terms

    def tampered(W, lab):
        terms = honest(W, lab)
        if W is below.module and lab == ("h", 0):
            # 1 at (slot 0, DS coordinate 0; footpoint 0): a row sel does not read
            terms.append((1, 0, 1, SpMat.from_entries(W.dim, W.dim, {(0, 0): 1})))
        return terms

    jetcalc._jet1_terms = tampered
    try:
        with pytest.raises(EqualizerNotCertified, match="does not preserve"):
            semiholonomic(V, 2, below=below)
    finally:
        jetcalc._jet1_terms = honest


def test_tampered_ambient_action_is_refused():
    expect_tampered_ambient_refused()


def test_tampered_ambient_action_is_refused_under_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        "import sys\n"
        "if sys.flags.optimize < 1: sys.exit(3)\n"
        "import test_jetcalc\n"
        "test_jetcalc.expect_tampered_ambient_refused()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=here, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _a1_index_maps():
    """phi, pick and phi_prev of the step Jbar^2 -> Jbar^3 for A1 (1)."""
    V = module("A1", (1,), (1,))
    prev = semiholonomic(V, 2)
    sh = semiholonomic(V, 3, below=prev)
    pdim = prev.module.dim
    pick = [list(sh.phi).index(p) if p >= pdim else p for p in range(sh.module.dim)]
    ppdim = jbar_dim(len(V.g.pplus_roots), V.dim, 1)
    return list(sh.phi), pick, list(prev.phi), pdim, ppdim


def test_index_map_certificate_accepts_the_tower():
    phi, pick, phi_prev, pdim, ppdim = _a1_index_maps()
    jetcalc._certify_index_maps(phi, pick, phi_prev, pdim, ppdim, 1)


@pytest.mark.parametrize("corrupt,match", [
    ("swap_tensor_rows", "leaves the equalizer"),
    ("pick_wrong_row", "sel o iota"),
    ("merge_footpoints", "sel o iota"),
    ("move_prev_row", "leaves the equalizer"),
    ("short_phi", "iota has"),
    ("short_phi_prev", "iota of Jbar"),
])
def test_index_map_certificate_refuses_corruption(corrupt, match):
    phi, pick, phi_prev, pdim, ppdim = _a1_index_maps()
    if corrupt == "swap_tensor_rows":
        q = pdim + 1
        phi[q], phi[q + 1] = phi[q + 1], phi[q]
    elif corrupt == "pick_wrong_row":
        pick[-1] = pick[-2]
    elif corrupt == "merge_footpoints":
        phi[1] = phi[0]
    elif corrupt == "move_prev_row":
        phi_prev[-1] = phi_prev[-2]
    elif corrupt == "short_phi":
        phi.pop()
    else:
        phi_prev.pop()
    with pytest.raises(EqualizerNotCertified, match=match):
        jetcalc._certify_index_maps(phi, pick, phi_prev, pdim, ppdim, 1)


def test_index_map_certificate_counts_rank():
    # d = 1, dim Jbar^{k-2} = 1, dim Jbar^{k-1} = 2: diff has one nonzero
    # row, but a 2-dim image would need rank 4 - 2 = 2
    with pytest.raises(EqualizerNotCertified, match="rank of the equalizer is 1"):
        jetcalc._certify_index_maps([0, 1, 0, 1], [0, 1], [0, 0], 2, 1, 1)


def test_truncation_matrix_shape():
    t = truncation_matrix(2, 3, 2)
    assert (t.nrows, t.ncols) == (3 + 6, 3 + 6 + 12)
    for i in range(t.nrows):
        assert t.col_dict(i) == {i: Q(1)}


@pytest.mark.parametrize("k", [1, 2])
def test_chain_embedding_certified(k):
    g = graded("A1", (1,))
    V = module("A1", (1,), (1,))
    src = semiholonomic(V, k + 1).module
    tgt = semiholonomic(jet1(V), k).module
    m = chain_embedding(g, V.dim, k)
    res = check_equivariance(m, src, tgt)
    assert res.certified
    assert m.rank() == src.dim  # injective
    # footpoint slots are preserved
    for i in range(V.dim):
        assert m.col_dict(i) == {i: Q(1)}
    if k == 1:
        # Jbar^1(J^1 W) = J^1(J^1 W): the embedding is iota of Jbar^2(W)
        assert m == iota(semiholonomic(V, 2))


def test_jbar_of_map_functorial():
    g = graded("A2", (1,))
    F = SpMat.from_dense([[1, 2], [0, 1], [3, 0]])
    G = SpMat.from_dense([[1, 0, 1], [0, 2, 0]])
    assert jbar_of_map(g, F, 1) == jet1_map_matrix(g, F)
    for k in (1, 2):
        JF = jbar_of_map(g, F, k)
        JG = jbar_of_map(g, G, k)
        assert (jbar_of_map(g, F @ G, k) - JF @ JG).is_zero()
        assert (
            jbar_of_map(g, SpMat.identity(3), k) - SpMat.identity(JF.nrows)
        ).is_zero()


def test_semiholonomic_budget():
    # semiholonomic takes no budget: `generate_submodule` decides it once,
    # with check_jet_budget. dim V = 8 and dim p_+ = 3, so
    # dim Jbar^4 = 8 (1 + 3 + 9 + 27 + 81)
    V = module("A2", (1, 2), (1, 1))
    d = len(V.g.pplus_roots)
    assert jbar_dim(d, V.dim, 4) == 968
    with pytest.raises(DimensionOverBudget, match="dim Jbar\\^4 = 968 exceeds budget 500"):
        check_jet_budget(d, V.dim, 4, 500)
    check_jet_budget(d, V.dim, 4, 968)
    with pytest.raises(ValueError):
        semiholonomic(V, -1)
