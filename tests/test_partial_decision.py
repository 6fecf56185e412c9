"""Each source's jet budget is decided once, at the layer of E that shows it.

The arrows out of a source of depth r read Jbar^{r+1}(E/E^1), so the
source is partial when jbar_dim(d, dim E/E^1, r + 1) exceeds the budget.
`generate_submodule` checks each closure layer j as it arrives against
Jbar^{j+1}, and stops the closure at the first one over the budget. These
tests run `build_bgg_diagram` with spies on the closure, the jets and the
operators, and compare with the reference decision read off the full
closure (built with the budget lifted): the same sources are partial, each
closure stops at its deciding layer, and nothing built exceeds the budget.
"""

import functools

import pytest

from artifact import bggcore
from artifact.bggcore import build_bgg_diagram, generate_submodule
from artifact.jetcalc import MAX_JET_DIM, jbar_dim
from conftest import BATTERY, NO_JET_BUDGET, components_for, graded

BUDGETS = [7, 40, 500, MAX_JET_DIM]


@functools.lru_cache(maxsize=None)
def full_closures(label, sigma, weight):
    """(n, s) -> (e, the offsets of the nonempty layers of E, r) for every
    source, from the whole closure."""
    cc, cohs, comps = components_for(label, sigma, weight)
    out = {}
    for n in range(cc.top):
        for s, comp in enumerate(comps[n]):
            gs = generate_submodule(cc, cohs[n], comp, max_jet_dim=NO_JET_BUDGET)
            layers = sorted(set(gs.offsets))
            out[n, s] = (gs.quotient(1).dim, layers, gs.r)
    return out


def reference_decision(label, sigma, weight, budget):
    """(partial sources in level order, (n, s) -> the layers the closure
    should consume): all of them for a built source, and up to the first
    layer j with dim Jbar^{j+1} over budget for a partial one."""
    d = len(graded(label, sigma).pplus_roots)
    partial, consumed = [], {}
    for src, (e, layers, r) in full_closures(label, sigma, weight).items():
        if jbar_dim(d, e, r + 1) > budget:
            partial.append(src)
        over = [j for j in layers if jbar_dim(d, e, j + 1) > budget]
        consumed[src] = layers if not over else [j for j in layers if j <= over[0]]
    return partial, consumed


def spied_run(monkeypatch, label, sigma, weight, budget):
    """Run the diagram with spies; returns (diagram, (n, s) -> the layers
    its closure yielded, dims of the Jbar built, widths of the operators)."""
    closure, semiholonomic, operator = (
        bggcore.layered_closure, bggcore.semiholonomic, bggcore.bgg_operator)
    yielded: list[list[int]] = []
    jets: list[int] = []
    widths: list[int] = []

    def spy_closure(*args):
        rec: list[int] = []
        yielded.append(rec)
        for j, basis in closure(*args):
            rec.append(j)
            yield j, basis

    def spy_semiholonomic(*args, **kwargs):
        sh = semiholonomic(*args, **kwargs)
        jets.append(sh.module.dim)
        return sh

    def spy_operator(*args, **kwargs):
        op = operator(*args, **kwargs)
        widths.append(op.matrix.ncols)
        return op

    monkeypatch.setattr(bggcore, "layered_closure", spy_closure)
    monkeypatch.setattr(bggcore, "semiholonomic", spy_semiholonomic)
    monkeypatch.setattr(bggcore, "bgg_operator", spy_operator)
    diagram = build_bgg_diagram(graded(label, sigma), weight, max_jet_dim=budget)
    monkeypatch.undo()
    sources = [(n, s) for n in range(len(diagram.columns) - 1)
               for s in range(len(diagram.columns[n]))]
    assert len(yielded) == len(sources)
    return diagram, dict(zip(sources, yielded)), jets, widths


@pytest.mark.parametrize("label,sigma,weight",
                         [(l, s, w) for l, s, ws in BATTERY for w in ws],
                         ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x)
def test_partial_sources_are_the_reference_decision(monkeypatch, label, sigma, weight):
    for budget in BUDGETS:
        diagram, yielded, jets, widths = spied_run(monkeypatch, label, sigma, weight, budget)
        partial, consumed = reference_decision(label, sigma, weight, budget)
        assert diagram.partial == partial, budget
        assert yielded == consumed, budget
        # no Jbar the diagram builds, and no operator domain Jbar^K, is
        # larger than the budget
        assert all(dim <= budget for dim in jets + widths), (budget, jets, widths)


# (n, s) -> (r, the last layer the closure reaches) at max_jet_dim = 40;
# the closure of each of these sources runs to r when the budget is
# checked only after it
STOPS = {
    ("A3", (1, 3), (1, 0, 0)): {(1, 0): (3, 1)},
    ("A2", (1, 2), (1, 1)): {(0, 0): (4, 3)},
}


@pytest.mark.parametrize("case", STOPS, ids=lambda c: f"{c[0]}-{','.join(map(str, c[1]))}")
def test_closure_stops_at_the_deciding_layer(monkeypatch, case):
    diagram, yielded, _, _ = spied_run(monkeypatch, *case, 40)
    full = full_closures(*case)
    for src, (r, last) in STOPS[case].items():
        assert src in diagram.partial
        assert full[src][2] == r
        assert yielded[src][-1] == last < r
