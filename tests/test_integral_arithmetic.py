"""Simply-laced complexes and jet towers are integral.

Under the normalised pairing (x|y) = B(x, y) / 2h^vee every d_a of A, D and E
is 1, so no scalar of d_n (n + 1 over d_a) and no J^1 bracket term (c over
d_a) carries a denominator. A 1/d_a brought back anywhere on these paths
fails here, not only as a slower assembly.
"""

import pytest

from artifact import jetcalc
from artifact.bggcore import build_bgg_diagram
from conftest import complex_for, graded

CASES = [("A3", (1, 2, 3), (0, 0, 0)), ("A3", (1, 3), (1, 0, 0))]


def non_ints(m):
    return [(i, j, v) for i, j, v in m.entries() if type(v) is not int]


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_complex_is_integral(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    assert set(cc.g.pairing_d) == {1}
    for n in range(cc.top + 1):
        assert non_ints(cc.dels[n]) == [], ("d", n)
        assert non_ints(cc.delstars[n]) == [], ("dstar", n)


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_jet_tower_is_integral(monkeypatch, label, sigma, weight):
    """Every Jbar^k the diagram's towers build, Jbar^0 included as the
    module each first step extends, acts by int matrices."""
    extend = jetcalc._extend
    built = []

    def spy(prev):
        jet = extend(prev)
        built.extend((prev, jet))
        return jet

    monkeypatch.setattr(jetcalc, "_extend", spy)
    build_bgg_diagram(graded(label, sigma), weight)
    monkeypatch.undo()
    assert any(jet.r >= 2 for jet in built)
    for jet in built:
        for lab, act in jet.module.actions.items():
            assert non_ints(act) == [], (jet.r, lab)
