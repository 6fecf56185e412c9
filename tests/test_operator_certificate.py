"""The BGG operator's left certificate against the full build of Jbar^{r+1}.

`bgg_operator` certifies D = Dt o iota from the left, on the actions of the
splitter's Jbar^r (`certify.certify_from_left`). The reference builds the
action of Jbar^{r+1} and checks D against it (`jet_reference`). The two must
accept the same operators and refuse the same tampered ones.
"""

from collections import Counter

import pytest

from artifact import bggcore, certify, jetcalc
from artifact.bggcore import bgg_operator, compose_splitter, generate_submodule, operator_on_jet1
from artifact.certify import CertificationFailure, certify_from_left
from artifact.jetcalc import MAX_JET_DIM, equalizer_index_maps, jbar_dim
from conftest import BATTERY, NO_JET_BUDGET, components_for
from jet_reference import full_build_certificate, index_matrix
from linalg_reference import bumped

ACCEPT_CASES = [(label, sigma, w) for label, sigma, ws in BATTERY for w in ws]
ACCEPT_CASES.append(("G2", (1,), (1, 0)))

REFUSE_CASES = [("A3", (1, 3), (1, 0, 0)), ("G2", (1,), (1, 0)), ("A2", (1, 2), (1, 1))]


def sources_for(label, sigma, weight):
    """(gs, chain, coh_next, comps_next) for each source within the jet budget."""
    cc, cohs, comps = components_for(label, sigma, weight)
    d = len(cc.g.pplus_roots)
    for n in range(cc.top):
        for comp in comps[n]:
            gs = generate_submodule(cc, cohs[n], comp, max_jet_dim=NO_JET_BUDGET)
            if jbar_dim(d, gs.quotient(1).dim, gs.r + 1) > MAX_JET_DIM:
                continue
            yield gs, compose_splitter(gs), cohs[n + 1], comps[n + 1]


def left_certificate_accepts(dt, chain, coh_next) -> bool:
    phi, pick = equalizer_index_maps(chain.jet)
    try:
        certify_from_left(dt, chain.jet.module, phi, len(pick), coh_next.module)
    except CertificationFailure:
        return False
    return True


def merged(dt, chain):
    phi, pick = equalizer_index_maps(chain.jet)
    return dt @ index_matrix(phi, len(pick))


@pytest.mark.parametrize("label,sigma,weight", ACCEPT_CASES)
def test_both_certificates_accept_the_operator(label, sigma, weight):
    for gs, chain, coh_next, comps_next in sources_for(label, sigma, weight):
        op = bgg_operator(gs, chain, coh_next, comps_next)  # the left certificate
        dt, _ = operator_on_jet1(gs, chain, coh_next)
        assert merged(dt, chain) == op.matrix
        assert full_build_certificate(gs, chain, coh_next, op.matrix) == ()


@pytest.mark.parametrize("label,sigma,weight", REFUSE_CASES)
def test_both_certificates_refuse_a_tampered_operator(label, sigma, weight):
    sources = merged_columns = 0
    for gs, chain, coh_next, _ in sources_for(label, sigma, weight):
        dt, _ = operator_on_jet1(gs, chain, coh_next)
        # 1 added to the first harmonic coordinate of D at the footpoint
        # column 0, which no other column of Dt merges with
        tampered = [bumped(dt, 0, 0)]
        if chain.jet.r >= 1:
            # a column of Dt that phi merges with another one (phi of
            # Jbar^1, over chain.jet = Jbar^0, merges none)
            phi, _ = equalizer_index_maps(chain.jet)
            count = Counter(phi)
            q = next(q for q in range(chain.jet.module.dim, len(phi)) if count[phi[q]] > 1)
            tampered.append(bumped(dt, 0, q))
            merged_columns += 1
        for bad in tampered:
            assert not left_certificate_accepts(bad, chain, coh_next)
            assert full_build_certificate(gs, chain, coh_next, merged(bad, chain)) != ()
        sources += 1
    assert sources and merged_columns


def test_left_certificate_names_the_failing_labels():
    gs, chain, coh_next, _ = next(sources_for("A2", (1,), (1, 0)))
    dt, _ = operator_on_jet1(gs, chain, coh_next)
    phi, pick = equalizer_index_maps(chain.jet)  # r = 1
    with pytest.raises(CertificationFailure, match=r"^operator residuals on \[\("):
        certify_from_left(bumped(dt, 0, 0), chain.jet.module, phi, len(pick), coh_next.module)


@pytest.mark.parametrize("label,sigma,weight,level,source", [
    ("A2", (1,), (1, 0), 1, 0),         # r = 0: D = Dt
    ("A3", (1, 3), (1, 0, 0), 0, 0),    # r = 2
])
def test_operator_builds_no_jet_action(monkeypatch, label, sigma, weight, level, source):
    cc, cohs, comps = components_for(label, sigma, weight)
    gs = generate_submodule(cc, cohs[level], comps[level][source])
    chain = compose_splitter(gs)
    assert gs.r == (0 if level == 1 else 2)
    calls = Counter()
    for name in ("_extend", "semiholonomic"):
        original = getattr(jetcalc, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (jetcalc, bggcore, certify):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    op = bgg_operator(gs, chain, cohs[level + 1], comps[level + 1])
    assert op.arrows
    assert not calls
