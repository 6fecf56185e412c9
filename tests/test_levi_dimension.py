"""Each column component has the dimension of its label's Levi irrep.

A component of column n is an irreducible g_0-module. Its label is the
uncrossed-dominant representative of -mu, mu its highest weight
(`repmod.decompose_completely_reducible`), so it is the highest weight of
the dual module, which has the same dimension. Weyl's formula for the Levi
g_0 gives that dimension as the product over the uncrossed positive roots
alpha (sigma height 0) of (label + rho, alpha) / (rho, alpha). The rho of g
serves: rho - rho_0 is half the sum of the roots of p_+, which the Levi
Weyl group permutes, so it is orthogonal to every uncrossed root.
(`rootspace.weyl_dimension` is the same product over every positive root.)

The columns checked are every `BATTERY` case and every golden report. The
components of every `GOLDEN_DIMS` module settle the label convention: their
Levi dimensions add up to the pinned harmonic dimensions. The helper here is
the reference for `rootspace.levi_weyl_dimension`, which the run-time
oracle (`certify.oracle_agrees`) compares each component's dim with.
"""

import glob
import json
import os

import pytest

from artifact.certify import oracle_agrees
from artifact.hodge import cohomology_module
from artifact.linalg import Q
from artifact.repmod import IrrepLabel, decompose_completely_reducible
from artifact.rootspace import (
    build_root_system,
    dominant_representative_for,
    levi_weyl_dimension as run_time_dimension,
    parabolic,
    sigma_height,
)
from conftest import BATTERY, GOLDEN_DIMS, complex_for_module, diagram_for, graded

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# corpus.json holds the contract corpus's hashes, not a report
GOLDEN_REPORTS = sorted(name for name in map(os.path.basename,
                                              glob.glob(os.path.join(GOLDEN, "*.json")))
                        if name != "corpus.json")


def levi_weyl_dimension(p, label) -> int:
    """prod over positive alpha of sigma height 0 of
    (label + rho, alpha) / (rho, alpha), certified a positive integer."""
    rs = p.rs
    shifted = tuple(a + b for a, b in zip(label, rs.rho))
    val = Q(1)
    for alpha in rs.pos_roots:
        if sigma_height(p, alpha) == 0:
            val *= Q(rs.ip_weight_root(shifted, alpha)) / rs.ip_weight_root(rs.rho, alpha)
    assert val.denominator == 1 and val > 0, (label, val)
    return int(val)


def mismatches(p, columns) -> list[tuple]:
    """(level, label, dim, Weyl dimension) of each component whose ``dim``
    is not the Levi Weyl dimension of its label; ``columns[n]`` holds the
    (label, dim) of column n."""
    return [(n, tuple(label), dim, levi_weyl_dimension(p, label))
            for n, column in enumerate(columns) for label, dim in column
            if levi_weyl_dimension(p, label) != dim]


@pytest.mark.parametrize("key", sorted(GOLDEN_DIMS))
def test_label_convention_against_golden_dims(key):
    """The convention, settled on the harmonic dimensions of GOLDEN_DIMS:
    every label is dominant on the uncrossed nodes, and the Levi Weyl
    dimensions of level n's labels add up to dim H^n. A lowest-weight
    label, antidominant there, would fail both."""
    label, sigma, lam_mod = key
    p = graded(label, sigma).par
    cc = complex_for_module(label, sigma, lam_mod)
    got = []
    for n in range(cc.top + 1):
        comps = decompose_completely_reducible(cohomology_module(cc, n).module)
        for c in comps:
            assert all(c.label[i - 1] >= 0 for i in p.uncrossed), (n, c.label)
            assert levi_weyl_dimension(p, c.label) == c.dim, (n, c.label)
        got.append(sum(levi_weyl_dimension(p, c.label) for c in comps))
    assert got == GOLDEN_DIMS[key][1]


@pytest.mark.parametrize("label,sigma,weight",
                         [(l, s, w) for l, s, ws in BATTERY for w in ws])
def test_battery_columns_have_levi_weyl_dimensions(label, sigma, weight):
    g = graded(label, sigma)
    diagram = diagram_for(label, sigma, weight)
    columns = [[(c.label, c.dim) for c in column] for column in diagram.columns]
    assert mismatches(g.par, columns) == []


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_golden_columns_have_levi_weyl_dimensions(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        report = json.load(fh)
    p = parabolic(build_root_system(report["algebra"]), set(report["sigma"]))
    columns = [[(c["label"], c["dim"]) for c in column["components"]]
               for column in report["columns"]]
    assert any(columns)
    assert mismatches(p, columns) == []


@pytest.mark.parametrize("label,sigma,weight",
                         [(l, s, w) for l, s, ws in BATTERY for w in ws])
def test_run_time_dimension_agrees_with_the_reference(label, sigma, weight):
    p = graded(label, sigma).par
    labels = [c.label for column in diagram_for(label, sigma, weight).columns for c in column]
    assert labels
    assert [run_time_dimension(p, l) for l in labels] == \
        [levi_weyl_dimension(p, l) for l in labels]


@pytest.mark.parametrize("label,sigma,weight", [("A2", (1,), (1, 1)), ("B2", (1, 2), (1, 0)),
                                                ("G2", (1,), (1, 0))])
def test_oracle_refuses_a_tampered_dim(label, sigma, weight):
    """Every label and E-eigenvalue as Kostant predicts, but one component's
    dim raised by one: the oracle fails it."""
    g = graded(label, sigma)
    lam_mod = dominant_representative_for(g.rs, range(1, g.rs.rank + 1), tuple(-x for x in weight))
    columns = diagram_for(label, sigma, weight).columns
    assert oracle_agrees(g, lam_mod, columns)
    for n, column in enumerate(columns):
        for k, c in enumerate(column):
            tampered = [list(col) for col in columns]
            tampered[n][k] = IrrepLabel(c.label, c.e_eigenvalue, c.dim + 1, c.embedding)
            assert not oracle_agrees(g, lam_mod, tampered), (n, k)
