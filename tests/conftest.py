"""Shared builders for the test suite.

Heavy objects (graded algebras, cochain complexes, diagrams) are cached per
session so the acceptance battery and the unit tests share work. Keys are
always (label, sigma, weight) with sigma and weight as tuples.
"""

import functools
import inspect

from hypothesis import HealthCheck, settings

from artifact.bggcore import build_bgg_diagram, compose_splitter, generate_submodule
from artifact.gradedla import build_graded_algebra
from artifact.hodge import build_cochain_complex, cohomology_module
from artifact.linalg import Q, SpMat, kron_blocks
from artifact.repmod import build_irrep, decompose_completely_reducible
from artifact.rootspace import build_root_system, dominant_representative_for, parabolic

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


# one trivial, one first-fundamental, one adjoint weight per parabolic
BATTERY = [
    ("A1", (1,), [(0,), (1,), (2,)]),
    ("A2", (1,), [(0, 0), (1, 0), (1, 1)]),
    ("A2", (1, 2), [(0, 0), (1, 0), (1, 1)]),
    ("A3", (1, 3), [(0, 0, 0), (1, 0, 0), (1, 0, 1)]),
    ("A3", (2,), [(0, 0, 0), (1, 0, 0), (1, 0, 1)]),
    ("B2", (1,), [(0, 0), (1, 0), (0, 2)]),
]

# a jet budget no test case reaches, for the tests that read the whole E of
# a source the diagram leaves partial (`generate_submodule` stops its
# closure at the layer that shows it over the default budget)
NO_JET_BUDGET = 10**18

GOLDEN_DIMS = {
    # (label, sigma, module highest weight): (chain dims, harmonic dims)
    ("A1", (1,), (0,)): ([1, 1], [1, 1]),
    ("A1", (1,), (3,)): ([4, 4], [1, 1]),
    ("A2", (1,), (0, 0)): ([1, 2, 1], [1, 2, 1]),
    ("A2", (1,), (1, 0)): ([3, 6, 3], [2, 3, 1]),
    ("A2", (1,), (1, 1)): ([8, 16, 8], [2, 4, 2]),
    ("A2", (1, 2), (1, 1)): ([8, 24, 24, 8], [1, 2, 2, 1]),
    ("B2", (1,), (0, 0)): ([1, 3, 3, 1], [1, 3, 3, 1]),
    ("B2", (1,), (1, 0)): ([5, 15, 15, 5], [1, 5, 5, 1]),
    ("B2", (1,), (0, 1)): ([4, 12, 12, 4], [2, 4, 4, 2]),
    ("B2", (1,), (0, 2)): ([10, 30, 30, 10], [3, 5, 5, 3]),
    ("A3", (1, 3), (0, 0, 0)): ([1, 5, 10, 10, 5, 1], [1, 4, 5, 5, 4, 1]),
    ("A3", (1, 3), (1, 0, 0)): ([4, 20, 40, 40, 20, 4], [1, 5, 7, 7, 5, 1]),
    ("A3", (1, 3), (0, 1, 0)): ([6, 30, 60, 60, 30, 6], [2, 6, 6, 6, 6, 2]),
    ("A3", (1, 3), (1, 0, 1)): ([15, 75, 150, 150, 75, 15], [1, 6, 9, 9, 6, 1]),
    ("A3", (2,), (1, 0, 0)): ([4, 16, 24, 16, 4], [2, 6, 8, 6, 2]),
    ("A3", (2,), (1, 0, 1)): ([15, 60, 90, 60, 15], [4, 9, 10, 9, 4]),
    ("G2", (1,), (0, 0)): ([1, 5, 10, 10, 5, 1], [1, 2, 3, 3, 2, 1]),
}


@functools.lru_cache(maxsize=None)
def graded(label, sigma):
    rs = build_root_system(label)
    return build_graded_algebra(parabolic(rs, set(sigma)))


@functools.lru_cache(maxsize=None)
def complex_for_module(label, sigma, lam_mod):
    """Complex on V(lam_mod) itself, keyed by the module highest weight."""
    g = graded(label, sigma)
    V = build_irrep(g, lam_mod)
    return build_cochain_complex(g, V)


def complex_for(label, sigma, weight):
    """Complex for the diagram convention: weight labels the zeroth column."""
    g = graded(label, sigma)
    lam_mod = dominant_representative_for(g.rs, range(1, g.rs.rank + 1), tuple(-x for x in weight))
    return complex_for_module(label, sigma, lam_mod)


@functools.lru_cache(maxsize=None)
def components_for(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    cohs = [cohomology_module(cc, n) for n in range(cc.top + 1)]
    comps = [decompose_completely_reducible(c.module) for c in cohs]
    return cc, cohs, comps


@functools.lru_cache(maxsize=None)
def splitters_for(label, sigma, weight):
    """(gs, chain) for every component of every level below the top, in
    level order: its generated submodule and its splitter chain, partial
    sources included."""
    cc, cohs, comps = components_for(label, sigma, weight)
    out = []
    for n in range(cc.top):
        for comp in comps[n]:
            gs = generate_submodule(cc, cohs[n], comp, max_jet_dim=NO_JET_BUDGET)
            out.append((gs, compose_splitter(gs)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def diagram_for(label, sigma, weight, with_arrows=True):
    return build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)


def assert_representation(g, m):
    """[A_Z, A_W] = sum_k c_k A_k on the module m, [Z, W] = sum_k c_k k, for
    every pair of labels of p: one signed assembly per pair."""
    for l1 in g.p_labels:
        for l2 in g.p_labels:
            a1, a2 = m.actions[l1], m.actions[l2]
            assert SpMat.assemble(m.dim, m.dim, [(0, 0, 1, (a1, a2)), (0, 0, -1, (a2, a1))] + [
                (0, 0, -Q(c), m.actions[k]) for k, c in g.bracket_labels(l1, l2).items()
            ]).is_zero(), (l1, l2)


def level_action(cc, n, lab):
    """A^n_Z on C^n, assembled from the blocks the complex places; the
    complex itself never builds it."""
    dim = cc.dim(n)
    return SpMat.assemble(dim, dim, cc.action_blocks(n, lab))


def unit_wedges(cc, n):
    """eps_a (x) 1_V: C^n -> C^{n+1} for every p_+ root position a,
    assembled from the blocks the complex's readers place
    (`linalg.kron_blocks` of each bare wedge and 1_V, times a matrix on the
    right, here the identity); the complex itself never builds them."""
    eps = cc.bare_wedges(n)
    one = SpMat.identity(cc.dim(n))
    return [SpMat.assemble(cc.dim(n + 1), cc.dim(n), kron_blocks((e, cc.V.dim), right=one))
            for e in eps]


def record_assembled_shapes(monkeypatch) -> list[tuple[int, int]]:
    """Wrap `SpMat.assemble` in-process; the list it returns fills with the
    shape of every matrix assembled from then on, products included."""
    shapes = []
    original = SpMat.assemble

    def recording(cls, nrows, ncols, blocks):
        shapes.append((nrows, ncols))
        return original(nrows, ncols, blocks)

    monkeypatch.setattr(SpMat, "assemble", classmethod(recording))
    return shapes


def replaced(obj, **fields):
    """A copy of ``obj`` with the given fields overridden, for tampering.

    The copy is built by the class's own constructor from the attributes
    named by its parameters, so the lazy caches the constructor starts
    (wedges, projections, quotients) are empty and are recomputed from the
    tampered fields, never read from ``obj``."""
    params = inspect.signature(type(obj)).parameters
    return type(obj)(**{**{name: getattr(obj, name) for name in params}, **fields})
