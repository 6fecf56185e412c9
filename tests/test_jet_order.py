"""Each source's arrows are built at their own order K, not at the depth r + 1.

`build_bgg_diagram` builds the splitter L^(K-1) and the operator D_K on
Jbar^K, K = min(r + 1, highest target order) (`bggcore` module docstring).
The reference builds the full L^(r) and the operator on Jbar^{r+1}
(`jet_reference.full_operator`); D = D_K o pi says that each full block
vanishes past the prefix Jbar^k of its own order k, and that its leading
columns are the block built at K, which the built action of Jbar^K
certifies as well.
"""

import pytest

from artifact import bggcore, jetcalc
from artifact.bggcli import main
from artifact.bggcore import (
    bgg_operator,
    build_bgg_diagram,
    compose_splitter,
    generate_submodule,
    operator_jet_order,
    operator_order,
)
from artifact.jetcalc import MAX_JET_DIM, jbar_dim
from artifact.linalg import SpMat
from conftest import BATTERY, NO_JET_BUDGET, components_for, graded
from jet_reference import full_build_certificate, full_operator
from linalg_reference import bumped

REFERENCE_CASES = [(label, sigma, w) for label, sigma, ws in BATTERY for w in ws]
REFERENCE_CASES += [("G2", (1,), (1, 0)), ("A3", (1, 2, 3), (0, 0, 0))]


def in_budget_sources(label, sigma, weight):
    """(gs, K, coh_next, comps_next) for each source the diagram builds."""
    cc, cohs, comps = components_for(label, sigma, weight)
    d = len(cc.g.pplus_roots)
    for n in range(cc.top):
        for comp in comps[n]:
            gs = generate_submodule(cc, cohs[n], comp, max_jet_dim=NO_JET_BUDGET)
            if jbar_dim(d, gs.quotient(1).dim, gs.r + 1) > MAX_JET_DIM:
                continue
            yield gs, operator_jet_order(gs, comps[n + 1]), cohs[n + 1], comps[n + 1]


@pytest.mark.parametrize("label,sigma,weight", REFERENCE_CASES)
def test_full_operator_is_the_truncated_one_after_the_prefix(label, sigma, weight):
    d = len(graded(label, sigma).pplus_roots)
    arrows = 0
    for gs, K, coh_next, comps_next in in_budget_sources(label, sigma, weight):
        dv = gs.quotient(1).dim
        full, values = full_operator(gs, coh_next, comps_next)
        # the full build's values lie in ker dstar on every row of C^n
        assert (gs.cc.delstars[gs.n] @ values).is_zero()
        chain = compose_splitter(gs, K - 1)
        op = bgg_operator(gs, chain, coh_next, comps_next)
        assert full_build_certificate(gs, chain, coh_next, op.matrix) == ()
        built = {a.target: a.block for a in op.arrows}
        width = jbar_dim(d, dv, K)
        for t, blk in enumerate(full):
            k = operator_order(gs.comp, comps_next[t])
            own = jbar_dim(d, dv, k) if k >= 1 else 0
            assert blk.select_columns(list(range(own, blk.ncols))).is_zero(), (gs.n, t, k)
            lead = blk.select_columns(list(range(width)))
            assert lead == built.get(t, SpMat(blk.nrows, width)), (gs.n, t)
        arrows += len(op.arrows)
    assert arrows


# (n, s) -> (r, K), recorded before the operator was truncated at K
R_AND_K = {
    ("G2", (1,), (1, 0)): {
        (0, 0): (4, 2), (1, 0): (5, 3), (2, 0): (5, 4), (3, 0): (3, 3), (4, 0): (1, 2),
    },
    ("A3", (1, 3), (1, 0, 0)): {
        (0, 0): (2, 2), (1, 0): (3, 2), (1, 1): (2, 1), (2, 0): (3, 4), (2, 1): (2, 3),
        (2, 2): (2, 3), (3, 0): (1, 2), (3, 1): (1, 2), (3, 2): (0, 1), (4, 0): (1, 2),
        (4, 1): (0, 1),
    },
}


@pytest.mark.parametrize("case", R_AND_K, ids=lambda c: f"{c[0]}-{','.join(map(str, c[1]))}")
def test_no_source_builds_a_jet_above_K_minus_1(monkeypatch, case):
    label, sigma, weight = case
    _, _, comps = components_for(*case)
    sources: list[tuple[int, int]] = []
    r_and_k: dict[tuple[int, int], tuple[int, int]] = {}
    asked: dict[tuple[int, int], list[int]] = {}
    gen, sh = bggcore.generate_submodule, jetcalc.semiholonomic

    def spy_generate(cc, coh, comp, *args):
        # a partial source's closure stops early, so its r and K are read
        # off the closure with the budget lifted
        full = gen(cc, coh, comp, NO_JET_BUDGET)
        src = (full.n, sum(1 for n, _ in sources if n == full.n))
        sources.append(src)
        r_and_k[src] = (full.r, operator_jet_order(full, comps[full.n + 1]))
        return gen(cc, coh, comp, *args)

    def spy_semiholonomic(V, r, *args, **kwargs):
        asked.setdefault(sources[-1], []).append(r)
        return sh(V, r, *args, **kwargs)

    monkeypatch.setattr(bggcore, "generate_submodule", spy_generate)
    for mod in (jetcalc, bggcore):
        monkeypatch.setattr(mod, "semiholonomic", spy_semiholonomic)
    diagram = build_bgg_diagram(graded(label, sigma), weight)
    assert r_and_k == R_AND_K[case]
    for src, (_, K) in r_and_k.items():
        want = [] if src in diagram.partial else list(range(K))
        assert asked.get(src, []) == want, src


TAMPER_ARGV = ["--algebra", "A3", "--cross", "1,3", "--weight", "1,0,0", "verify"]


def tamper_values(monkeypatch):
    """Make `operator_on_jet1` return values with 1 added at a row of
    C^{n+1} whose E-grade offset from i0 is below K and whose dstar is
    nonzero; Dt, and so every certificate, is left as it was."""
    original = bggcore.operator_on_jet1

    def tampered(gs, chain, coh_next):
        dt, values = original(gs, chain, coh_next)
        K = len(chain.maps) + 1
        cc, n = gs.cc, gs.n
        dstar_cols = {j for _, j in cc.delstars[n].support()}
        row = next(i for i, mu in enumerate(cc.weights[n + 1])
                   if cc.g.e_eigenvalue(mu) - gs.i0 < K and i in dstar_cols)
        return dt, bumped(values, row, 0)

    monkeypatch.setattr(bggcore, "operator_on_jet1", tampered)


def test_tampered_values_fail_the_kernel_check(monkeypatch, capsys):
    cc, cohs, comps = components_for("A3", (1, 3), (1, 0, 0))
    verdicts = []
    for level, source in [(0, 0), (2, 0), (3, 2)]:   # K = 2, 4 and 1
        gs = generate_submodule(cc, cohs[level], comps[level][source])
        chain = compose_splitter(gs, operator_jet_order(gs, comps[level + 1]) - 1)
        with monkeypatch.context() as m:
            tamper_values(m)
            bad = bgg_operator(gs, chain, cohs[level + 1], comps[level + 1])
        good = bgg_operator(gs, chain, cohs[level + 1], comps[level + 1])
        verdicts.append((good.in_kernel, bad.in_kernel))
    assert verdicts == [(True, False)] * 3

    assert main(TAMPER_ARGV + ["--emit", "text"]) == 0
    assert "  splitter_values_kernel: pass\n" in capsys.readouterr().out
    tamper_values(monkeypatch)
    assert main(TAMPER_ARGV + ["--emit", "text"]) == 1
    out = capsys.readouterr().out
    assert "  splitter_values_kernel: fail\n" in out
    assert "  splitter_defect: pass\n" in out


@pytest.mark.parametrize("case", [("G2", (1,), (0, 0)), ("A3", (1, 3), (1, 0, 0))])
def test_splitter_at_k_is_the_full_one_truncated(case):
    # pi^{r+1}_{k+1} o L^(r) = L^(k) o pi^r_k, from pi^{i+1}_i o L_i = p_i
    d = len(graded(case[0], case[1]).pplus_roots)
    for gs in (src[0] for src in in_budget_sources(*case)):
        full = compose_splitter(gs).composite
        for k in range(gs.r + 1):
            part = compose_splitter(gs, k).composite
            rows = list(range(gs.quotient(k + 1).dim))
            width = jbar_dim(d, gs.quotient(1).dim, k)
            assert part.ncols == width
            assert full.submatrix(rows, list(range(width))) == part, (gs.n, k)
            assert full.submatrix(rows, list(range(width, full.ncols))).is_zero()
        with pytest.raises(ValueError):
            compose_splitter(gs, gs.r + 1)
