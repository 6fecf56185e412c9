"""Finite-dimensional modules: the irreducible as a P-module, its budget,
and the g_0-decomposition."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from artifact.bggcli import main
from artifact.linalg import Q, SpMat
from artifact.repmod import (
    DimensionOverBudget,
    ModuleNotCertified,
    NotCompletelyReducibleInput,
    PModule,
    build_irrep,
    check_module_budget,
    decompose_completely_reducible,
    layered_closure,
)
from artifact.rootspace import NonDominant, build_root_system
from conftest import assert_representation, components_for, graded
from hodge_reference import pplus_module
from linalg_reference import reference_kron
import repmod_reference
from repmod_reference import tensor


def irrep(label, lam):
    """V(lam) built over ``label`` with node 1 crossed. The simple
    generators' matrices, the weights and the Gram do not depend on the
    parabolic; the other labels are expanded from them."""
    return build_irrep(graded(label, (1,)), lam)


def simple_generators(V):
    """The matrices of the simple labels of V: (e_i), (f_i) and (h_i)."""
    n = V.g.rs.rank
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return (tuple(V.actions["e", a] for a in simple), tuple(V.actions["f", a] for a in simple),
            tuple(V.actions["h", i] for i in range(n)))


def assert_matches_reference(V, ref):
    """V's simple generators, weights and Gram are those of a reference
    ``GModule``."""
    assert (V.dim, V.weights, V.gram, simple_generators(V)) == \
        (ref.dim, ref.weights, ref.gram, (ref.e_mats, ref.f_mats, ref.h_mats))


@pytest.mark.parametrize(
    "label,lam,dim",
    [
        ("A1", (4,), 5),
        ("A2", (1, 0), 3),
        ("A2", (1, 1), 8),
        ("A2", (3, 0), 10),
        ("A3", (0, 1, 0), 6),
        ("A3", (1, 0, 1), 15),
        ("B2", (1, 0), 5),
        ("B2", (0, 1), 4),
        ("B2", (0, 2), 10),
        ("G2", (1, 0), 7),
    ],
)
def test_irrep_dimensions(label, lam, dim):
    m = irrep(label, lam)
    assert m.dim == dim
    assert len(m.weights) == dim


@pytest.mark.parametrize("label,lam", [
    ("A2", (1, 1)), ("B2", (1, 0)), ("G2", (2, 1)), ("C3", (1, 0, 1)), ("D4", (0, 1, 0, 0)),
])
def test_chevalley_relations(label, lam):
    m = irrep(label, lam)
    rs = m.g.rs
    e_mats, f_mats, h_mats = simple_generators(m)
    n = rs.rank
    for i in range(n):
        hi = h_mats[i]
        # h_i diagonal with the i-th weight coordinate
        for k, mu in enumerate(m.weights):
            col = hi.col_dict(k)
            assert col == ({k: Q(mu[i])} if mu[i] else {})
        for j in range(n):
            comm = SpMat.assemble(m.dim, m.dim, [
                (0, 0, 1, (e_mats[i], f_mats[j])), (0, 0, -1, (f_mats[j], e_mats[i])),
            ])
            if i == j:
                assert comm == h_mats[i]
            else:
                assert comm.is_zero()
            assert SpMat.assemble(m.dim, m.dim, [
                (0, 0, 1, (h_mats[i], e_mats[j])), (0, 0, -1, (e_mats[j], h_mats[i])),
                (0, 0, -Q(rs.cartan[i][j]), e_mats[j]),
            ]).is_zero()


def test_highest_weight_space_unique():
    m = irrep("B2", (1, 1))
    stacked = SpMat.vstack(list(simple_generators(m)[0]))
    ker = stacked.kernel_basis()
    assert ker.ncols == 1
    (idx,) = [k for k in ker.col_dict(0)]
    assert m.weights[idx] == (1, 1)


def test_contravariant_gram():
    m = irrep("A2", (2, 0))
    e_mats, f_mats, _ = simple_generators(m)
    G = m.gram
    assert G == G.transpose()
    assert G.rank() == m.dim
    for i in range(m.g.rs.rank):
        assert e_mats[i].transpose() @ G == G @ f_mats[i]
    # gram blocks vanish across distinct weights
    for r in range(m.dim):
        for c in range(m.dim):
            if m.weights[r] != m.weights[c]:
                assert G.get(r, c) == 0


class FractionWordCalc(repmod_reference._WordCalc):
    """The word calculator in ``Fraction`` arithmetic, one rational per
    coefficient: a reference for the int one."""

    def raise_word(self, i, word):
        key = (i, word)
        hit = self._ememo.get(key)
        if hit is not None:
            return hit
        out = {}
        if word:
            j, rest = word[0], word[1:]
            if i == j and self.weight(rest)[i]:
                out[rest] = Fraction(self.weight(rest)[i])
            for w, c in self.raise_word(i, rest).items():
                k = (j,) + w
                out[k] = out.get(k, Fraction(0)) + c
                if not out[k]:
                    del out[k]
        self._ememo[key] = out
        return out

    def pair(self, w1, w2):
        if len(w1) != len(w2):
            return Fraction(0)
        if not w1:
            return Fraction(1)
        key = (w1, w2)
        if key not in self._pmemo:
            self._pmemo[key] = sum(
                (c * self.pair(w1[1:], w) for w, c in self.raise_word(w1[0], w2).items()),
                Fraction(0),
            )
        return self._pmemo[key]


IRREP_CASES = [("G2", (1, 1)), ("A4", (1, 0, 0, 1)), ("C3", (1, 0, 1)), ("B2", (2, 1))]


@pytest.mark.parametrize("label,lam", IRREP_CASES)
def test_shapovalov_values_are_int(label, lam):
    rs = build_root_system(label)
    _, words = repmod_reference.build_irrep_words(rs, lam)
    wc = repmod_reference._WordCalc(rs, lam)
    for w1 in words:
        for w2 in words:
            assert type(wc.pair(w1, w2)) is int
        for i in range(rs.rank):
            assert all(type(c) is int for c in wc.raise_word(i, w1).values())


@pytest.mark.parametrize("label,lam", IRREP_CASES)
def test_build_irrep_matches_fraction_reference(label, lam, monkeypatch):
    got = irrep(label, lam)
    monkeypatch.setattr(repmod_reference, "_WordCalc", FractionWordCalc)
    assert_matches_reference(got, repmod_reference.build_irrep(got.g.rs, lam))


REFERENCE_CASES = IRREP_CASES + [
    ("A2", (2, 2)), ("A3", (2, 0, 1)), ("A4", (0, 1, 1, 0)), ("A5", (1, 0, 0, 0, 1)),
    ("B3", (1, 0, 1)), ("C3", (1, 0, 1)), ("D4", (0, 1, 0, 0)), ("G2", (2, 1)),
    ("F4", (0, 0, 0, 1)), ("B4", (1, 0, 0, 1)),
]


@pytest.mark.parametrize("label,lam", REFERENCE_CASES)
def test_build_irrep_matches_word_by_word_reference(label, lam):
    got = irrep(label, lam)
    assert_matches_reference(got, repmod_reference.build_irrep(got.g.rs, lam))


def every_column(self):
    """A tampered ``SpMat.independent_columns`` that keeps every column. The
    pairing of A2 (1,1) at the weight (-3, 3) is the single candidate
    f_0 f_0 v, and it pairs to [[0]], since that weight is not a weight of
    the module: kept anyway, its Gram is the singular [[0]]. The pairing is
    symmetric by construction, so no tamper of it alone can make a Gram
    singular."""
    return list(range(self.ncols))


def test_singular_weight_gram_is_refused(monkeypatch):
    g = graded("A2", (1,))
    monkeypatch.setattr(SpMat, "independent_columns", every_column)
    with pytest.raises(ModuleNotCertified, match=r"weight \(-3, 3\) is singular"):
        build_irrep(g, (1, 1))


def assert_refused_under_python_O(code: str) -> None:
    """Run ``code`` under ``python -O`` with this directory and `src` on the
    path: it exits 0 when the refusal it expects is raised, 3 when -O is
    off, 4 when nothing is raised and 5 on another message."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "import sys\n"
         "if sys.flags.optimize < 1: sys.exit(3)\n" + code + "sys.exit(4)\n"],
        cwd=here, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


def test_singular_weight_gram_is_refused_under_python_O():
    # the Gram certificate is an explicit check, so -O keeps it
    assert_refused_under_python_O(
        "from artifact import repmod\n"
        "from artifact.linalg import SpMat\n"
        "from conftest import graded\n"
        "from test_repmod import every_column\n"
        "g = graded('A2', (1,))\n"
        "SpMat.independent_columns = every_column\n"
        "try:\n"
        "    repmod.build_irrep(g, (1, 1))\n"
        "except repmod.ModuleNotCertified as exc:\n"
        "    sys.exit(0 if 'weight (-3, 3) is singular' in str(exc) else 5)\n"
    )


def test_singular_weight_gram_exits_1_from_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(SpMat, "independent_columns", every_column)
    argv = ["--algebra", "A2", "--cross", "1", "--weight", "1,1", "cohomology"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ModuleNotCertified: contravariant Gram of weight (-3, 3) is singular\n"


def test_budget_and_dominance_guards():
    g = graded("A2", (1,))
    assert check_module_budget(g.rs, (9, 9), 1000) == 1000
    with pytest.raises(DimensionOverBudget, match=r"^dim V\(\(9, 9\)\) = 1000 exceeds budget 100$"):
        check_module_budget(g.rs, (9, 9), 100)
    with pytest.raises(NonDominant):
        check_module_budget(g.rs, (-1, 0), 100)
    with pytest.raises(NonDominant):
        build_irrep(g, (-1, 0))


def test_restriction_is_p_representation():
    g = graded("A2", (1,))
    V = build_irrep(g, (1, 0))
    assert_representation(g, V)
    E = g.grading_element
    for mu in V.weights:
        assert g.e_eigenvalue(mu) == sum(
            E.get(("h", j), Q(0)) * mu[j] for j in range(g.rs.rank)
        )


def test_pplus_action_is_computed_once_per_algebra():
    g = graded("B2", (1,))
    assert g.pplus_action is g.pplus_action
    assert pplus_module(g).actions == g.pplus_action


def test_pplus_module_is_adjoint_on_pplus():
    g = graded("B2", (1,))
    W = pplus_module(g)
    assert W.dim == len(g.pplus_roots)
    assert tuple(g.e_eigenvalue(w) for w in W.weights) == tuple(
        sum(r[i] for i in (0,)) for r in g.pplus_roots
    )
    assert_representation(g, W)


def test_tensor_and_dual_actions():
    g = graded("A1", (1,))
    V = build_irrep(g, (2,))
    W = build_irrep(g, (1,))
    T = tensor(V, W)
    assert T.dim == V.dim * W.dim
    for l in g.p_labels:
        expect = SpMat.assemble(T.dim, T.dim, [
            (0, 0, 1, reference_kron(V.actions[l], SpMat.identity(W.dim))),
            (0, 0, 1, reference_kron(SpMat.identity(V.dim), W.actions[l])),
        ])
        assert T.actions[l] == expect


def a1_square():
    """V(1) (x) V(1) over A1 {1}: no node is uncrossed, so every weight
    vector is highest, and the weight (0,) has two."""
    g = graded("A1", (1,))
    V = build_irrep(g, (1,))
    return tensor(V, V)


def test_a_repeated_highest_weight_is_refused():
    # H^n is multiplicity free (Kostant), so a second copy names its weight
    with pytest.raises(NotCompletelyReducibleInput,
                       match=r"weight \(0,\) has more than one highest weight vector"):
        decompose_completely_reducible(a1_square())


def test_a_repeated_highest_weight_is_refused_under_python_O():
    # the refusal is an explicit check, so -O keeps it
    assert_refused_under_python_O(
        "from artifact import repmod\n"
        "from test_repmod import a1_square\n"
        "try:\n"
        "    repmod.decompose_completely_reducible(a1_square())\n"
        "except repmod.NotCompletelyReducibleInput as exc:\n"
        "    sys.exit(0 if 'weight (0,) has more' in str(exc) else 5)\n"
    )


def test_decompose_with_uncrossed_lowering():
    g = graded("A2", (1,))
    V = build_irrep(g, (1, 0))
    comps = decompose_completely_reducible(V)
    # standard module splits as point + plane over the uncrossed A1
    dims = sorted(c.dim for c in comps)
    assert dims == [1, 2]


def test_decompose_requires_weight_basis():
    g = graded("A1", (1,))
    V = build_irrep(g, (1,))
    bare = PModule(g=g, dim=V.dim, actions=V.actions, weights=None)
    with pytest.raises(NotCompletelyReducibleInput):
        decompose_completely_reducible(bare)


@pytest.mark.parametrize("label,sigma,weight", [("G2", (1,), (1, 1)), ("A4", (2,), (1, 0, 0, 1))],
                         ids=["G2", "A4"])
def test_highest_weight_vectors_are_the_per_weight_kernels(label, sigma, weight):
    """On every H^n of the bench `cohomology` cases, the highest weight
    vectors read off one kernel of the whole module, the first column of
    each copy's closure, are the kernel of each weight's own block."""
    _, cohs, comps = components_for(label, sigma, weight)
    for coh, comp in zip(cohs, comps):
        mod = coh.module
        got = {}
        for c in comp:
            tops = c.embedding.select_columns(list(range(0, c.embedding.ncols, c.dim)))
            got[mod.weights[min(tops.col_dict(0))]] = tops
        assert got == repmod_reference.highest_weight_vectors(mod)


def test_a_highest_weight_vector_over_two_weights_is_refused():
    """The kernel is read by weight only when each of its vectors lies in
    one weight. A raising that sends the highest weight vectors x and y of
    two weights to one vector puts x - y in the kernel in place of both:
    refused, not split."""
    g = graded("A2", (1,))
    V = build_irrep(g, (1, 0))
    tops = repmod_reference.highest_weight_vectors(V)
    (x,), (y,) = (list(t.col_dict(0)) for t in tops.values())
    e2 = ("e", (0, 1))
    z = next(i for i in range(V.dim) if i not in (x, y))
    actions = dict(V.actions)
    actions[e2] = SpMat.assemble(V.dim, V.dim, [
        (0, 0, 1, V.actions[e2]),
        (0, 0, 1, SpMat.from_entries(V.dim, V.dim, {(z, x): 1, (z, y): 1})),
    ])
    bent = PModule(g=g, dim=V.dim, actions=actions, weights=V.weights)
    with pytest.raises(NotCompletelyReducibleInput, match="spans the weights"):
        decompose_completely_reducible(bent)


def test_layered_closure_layers_and_refuses_overlap():
    # the shift e0 -> e1 -> e2 and its square: three layers of one vector
    shift = SpMat.from_entries(3, 3, {(1, 0): 1, (2, 1): 1})
    seed = SpMat.identity(3).select_columns([0])
    layers = list(layered_closure(seed, [(shift.__matmul__, 1), ((shift @ shift).__matmul__, 2)]))
    assert [(j, b.ncols) for j, b in layers] == [(0, 1), (1, 1), (2, 1)]
    assert SpMat.hstack([b for _, b in layers]) == SpMat.identity(3)
    # an op that raises no grading sends e0 to every layer: refused, not a loop
    with pytest.raises(ModuleNotCertified, match="overlap"):
        list(layered_closure(seed, [(SpMat.identity(3).__matmul__, 1)]))
