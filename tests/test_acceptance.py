"""Acceptance battery.

Each test covers one numbered acceptance criterion and prints exactly one
PASS/FAIL line (run with -s to stream them). The battery pairs every
supported parabolic with a trivial, a first-fundamental, and an adjoint
weight; see conftest.BATTERY.
"""

import os
import random

from artifact.bggcore import compose_splitter, generate_submodule
from artifact.certify import tilde_jet_submodule, verify_tower_containments
from artifact.hodge import hodge_decompose, wedge_insert_matrix
from artifact.jetcalc import check_equivariance
from artifact.linalg import Q, SpMat
from artifact.rootspace import dominant_representative_for
from conftest import (
    BATTERY,
    GOLDEN_DIMS,
    complex_for,
    components_for,
    diagram_for,
    graded,
)


def _report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}", flush=True)
    assert ok, f"criterion {num}: {desc}"


def battery_cases():
    for label, sigma, weights in BATTERY:
        for w in weights:
            yield label, sigma, w


def test_criterion_01_nilpotency_and_adjointness():
    ok = True
    for label, sigma, w in battery_cases():
        v = diagram_for(label, sigma, w).verify
        ok &= v["d_squared_zero"] and v["codifferential_squared_zero"]
        ok &= v["adjointness"]
    _report(1, "differential and codifferential nilpotent, adjoint over the "
               "graded inner products, all battery cases", ok)


def test_criterion_02_hodge_decomposition_counts():
    ok = True
    for label, sigma, w in battery_cases():
        cc = complex_for(label, sigma, w)
        for n in range(cc.top + 1):
            sp = hodge_decompose(cc, n)
            rank_prev = cc.dels[n - 1].rank() if n >= 1 else 0
            rank_next = cc.delstars[n].rank() if n < cc.top else 0
            ok &= sp.im_del.ncols == rank_prev
            ok &= sp.im_delstar.ncols == rank_next
            ok &= rank_prev + sp.ker_box.ncols + rank_next == cc.dim(n)
            rows = []
            if n < cc.top:
                rows.append(cc.dels[n])
            if n >= 1:
                rows.append(cc.delstars[n - 1])
            joint = SpMat.vstack(rows)
            ok &= joint.kernel_basis().ncols == sp.ker_box.ncols
            ok &= (joint @ sp.ker_box).is_zero()
    _report(2, "chain spaces split as im(del) + harmonic + im(delstar) with "
               "harmonic = ker(del) intersect ker(delstar), all battery cases", ok)


def test_criterion_03_a3_trivial_cohomology():
    d = diagram_for("A3", (1, 3), (0, 0, 0))
    counts = [len(col) for col in d.columns]
    dims = [sum(c.dim for c in col) for col in d.columns]
    ok = counts == [1, 2, 3, 3, 2, 1] and dims == [1, 4, 5, 5, 4, 1]
    cc = complex_for("A3", (1, 3), (0, 0, 0))
    ok &= [cc.dim(n) for n in range(cc.top + 1)] == [1, 5, 10, 10, 5, 1]
    _report(3, "A3 crossed {1,3} trivial weight: cohomology dimensions "
               "1,4,5,5,4,1 in 1,2,3,3,2,1 components against chain "
               "dimensions 1,5,10,10,5,1", ok)


def closed_form_table(a, b, c):
    """Closed-form node labels and operator orders for A3 crossed {1,3},
    zeroth column (a, b, c)."""
    n00 = (a, b, c)
    n10 = (a, b + c + 1, -c - 2)
    n11 = (-a - 2, a + b + 1, c)
    n20 = (a + b + 1, c, -b - c - 3)
    n21 = (-a - 2, a + b + c + 2, -c - 2)
    n22 = (-a - b - 3, a, b + c + 1)
    n30 = (b, c, -a - b - c - 4)
    n31 = (-a - b - 3, a + b + c + 2, -b - c - 3)
    n32 = (-a - b - c - 4, a, b)
    n40 = (-b - 2, b + c + 1, -a - b - c - 4)
    n41 = (-a - b - c - 4, a + b + 1, -b - 2)
    n50 = (-b - c - 3, b, -a - b - 3)
    columns = [[n00], [n10, n11], [n20, n21, n22], [n30, n31, n32],
               [n40, n41], [n50]]
    arrows = {
        (n00, n10, c + 1), (n00, n11, a + 1),
        (n10, n20, b + 1), (n10, n21, a + 1),
        (n11, n21, c + 1), (n11, n22, b + 1),
        (n20, n30, 2 * a + 2), (n20, n31, a + b + 2),
        (n21, n30, a + b + 2), (n21, n31, 2 * b + 2), (n21, n32, b + c + 2),
        (n22, n31, b + c + 2), (n22, n32, 2 * c + 2),
        (n30, n40, b + 1), (n31, n40, a + 1), (n31, n41, c + 1),
        (n32, n41, b + 1),
        (n40, n50, c + 1), (n41, n50, a + 1),
    }
    return columns, arrows


def test_criterion_04_a3_operator_pattern():
    weights = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]
    must_complete = {(0, 0, 0), (1, 0, 0)}
    ok = True
    for w in weights:
        d = diagram_for("A3", (1, 3), w)
        cols, expected = closed_form_table(*w)
        got_cols = [[c.label for c in col] for col in d.columns]
        ok &= [sorted(col) for col in got_cols] == [sorted(col) for col in cols]
        if w in must_complete:
            ok &= not d.partial
        skipped = set(d.partial)
        want = {
            (s, t, o) for s, t, o in expected
            if all((n, got_cols[n].index(s)) not in skipped
                   for n in range(5) if s in got_cols[n])
        }
        got = {
            (d.columns[a.level][a.source].label,
             d.columns[a.level + 1][a.target].label, a.order)
            for a in d.arrows
        }
        ok &= got == want
    _report(4, "A3 crossed {1,3} operator diagram matches the closed-form "
               "label/order table for five weights, no spurious arrows", ok)


def test_criterion_05_rumin_pattern():
    d = diagram_for("A3", (1, 3), (0, 0, 0))
    by_level = {}
    for a in d.arrows:
        by_level.setdefault(a.level, set()).add(a.order)
    ok = (by_level[2] == {2}
          and all(by_level[n] == {1} for n in (0, 1, 3, 4))
          and len(d.arrows) == 19)
    _report(5, "trivial-weight contact complex on A3 crossed {1,3}: "
               "second-order operators across the middle, first-order "
               "elsewhere", ok)


def test_criterion_06_a1_family():
    ok = True
    for m in range(6):
        d = diagram_for("A1", (1,), (m,))
        ok &= len(d.arrows) == 1 and d.arrows[0].order == m + 1
        ok &= d.verify["splitter_projection"]       # pi_H after L is identity
        ok &= d.verify["splitter_values_kernel"]    # delstar kills the values
        ok &= all(d.verify.values())
    _report(6, "A1 weight m gives the single operator of order m+1 with a "
               "verified splitting, m = 0..5", ok)


def test_criterion_07_splitting_operator_identities():
    ok = True
    checked = 0
    for label, sigma, w in battery_cases():
        v = diagram_for(label, sigma, w).verify
        ok &= v["splitter_projection"] and v["splitter_defect"]
        g = graded(label, sigma)
        cc, cohs, comps = components_for(label, sigma, w)
        for n in range(cc.top):
            for comp in comps[n]:
                gs = generate_submodule(cc, cohs[n], comp)
                chain = compose_splitter(gs)
                ok &= chain.certificate.ok
                # constrained jet spaces are P-submodules compatible with L
                for i in range(gs.r + 1):
                    T = tilde_jet_submodule(gs, i, chain.maps)
                    ok &= check_equivariance(T.basis, T.module, T.ambient).ok
                ok &= verify_tower_containments(gs, chain)
                checked += 1
    _report(7, f"projection, defect, and prolongation-tower containment "
               f"identities for all {checked} battery components", ok)


def _sample_identities(cc, rng, trials):
    """Vector-level Leibniz and commutator identities on random cochains."""
    ok = True
    g = cc.g
    dual = cc.dual
    droots = dual.roots
    nd = len(droots)
    for _ in range(trials):
        n = rng.randrange(cc.top)
        f = SpMat(cc.dim(n), 1)
        for i in range(cc.dim(n)):
            if rng.random() < 0.5:
                f.set(i, 0, Q(rng.randint(-3, 3)))
        # Leibniz rule for insertion against the codifferential
        zco = {a: Q(rng.randint(-2, 2)) for a in range(nd) if rng.random() < 0.6}
        zco = {a: c for a, c in zco.items() if c}
        if zco:
            act = SpMat(cc.dim(n), cc.dim(n))
            for a, c in zco.items():
                act = act + cc.levels[n].actions[("e", droots[a])].scale(c)
            lhs = cc.delstars[n] @ (wedge_insert_matrix(cc, n, zco) @ f)
            rhs = -(act @ f)
            if n >= 1:
                rhs = rhs - wedge_insert_matrix(cc, n - 1, zco) @ (
                    cc.delstars[n - 1] @ f
                )
            ok &= (lhs - rhs).is_zero()
        # commutator of a homogeneous raising element with the differential
        a = rng.randrange(nd)
        wlab = ("e", droots[a])
        gw = g.grade_of(wlab)
        lhs = cc.levels[n + 1].actions[wlab] @ (cc.dels[n] @ f) - cc.dels[n] @ (
            cc.levels[n].actions[wlab] @ f
        )
        rhs = SpMat(cc.dim(n + 1), 1)
        for b in range(nd):
            if g.grade_of(("e", droots[b])) > gw:
                continue
            br = g.bracket_labels(wlab, ("f", droots[b]))
            if not br:
                continue
            img = SpMat(cc.dim(n), 1)
            for lab, coeff in br.items():
                img = img + cc.levels[n].actions[lab].scale(
                    Q(coeff) / dual.d[b]
                ) @ f
            rhs = rhs + wedge_insert_matrix(cc, n, {b: Q(1)}) @ img.scale(n + 1)
        ok &= (lhs - rhs).is_zero()
    return ok


def test_criterion_08_codifferential_and_commutator_identities():
    ok = True
    # exhaustive matrix identities (every basis generator) on all A1/A2 cases
    exhaustive = 0
    for label, sigma, w in battery_cases():
        if label not in ("A1", "A2"):
            continue
        v = diagram_for(label, sigma, w).verify
        ok &= v["codifferential_leibniz"] and v["differential_commutator"]
        exhaustive += 1
    # seeded random spot checks spread across every A3 case
    rng = random.Random(20250825)
    sampled = 0
    for label, sigma, w in battery_cases():
        if label != "A3":
            continue
        ok &= _sample_identities(complex_for(label, sigma, w), rng, 17)
        sampled += 17
    ok &= exhaustive == 9 and sampled >= 100
    _report(8, f"codifferential Leibniz and twisted-differential commutator "
               f"identities: exhaustive on {exhaustive} A1/A2 cases, "
               f"{sampled} seeded samples across the A3 cases", ok)


def _uncrossed_weyl_dim(g, label):
    """Dimension of the harmonic component with a dual-rendered label."""
    rs = g.rs
    uncrossed = g.par.uncrossed
    mu = dominant_representative_for(rs, uncrossed, tuple(-x for x in label))
    rho_u = tuple(1 if (j + 1) in uncrossed else 0 for j in range(rs.rank))
    num, den = 1, 1
    for beta in rs.pos_roots:
        if any(beta[j - 1] for j in g.par.sigma):
            continue
        num *= rs.ip_weight_root(
            tuple(a + b for a, b in zip(mu, rho_u)), beta
        )
        den *= rs.ip_weight_root(rho_u, beta)
    val = Q(num) / Q(den)
    assert val == int(val)
    return int(val)


def test_criterion_09_kostant_oracle_agreement():
    ok = True
    for label, sigma, w in battery_cases():
        d = diagram_for(label, sigma, w)
        ok &= d.verify["oracle_agreement"]
        g = graded(label, sigma)
        for col in d.columns:
            for c in col:
                ok &= c.dim == _uncrossed_weyl_dim(g, c.label)
    # frozen dimension table
    for (label, sigma, lam_mod), (chain, harm) in GOLDEN_DIMS.items():
        from conftest import complex_for_module

        cc = complex_for_module(label, sigma, lam_mod)
        ok &= [cc.dim(n) for n in range(cc.top + 1)] == chain
        got = [hodge_decompose(cc, n).ker_box.ncols for n in range(cc.top + 1)]
        ok &= got == harm
    _report(9, "every battery column matches the Weyl-group oracle in labels, "
               "grading eigenvalues, and component dimensions", ok)


def test_criterion_10_scope_note():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    ok = "out of scope" in text.lower()
    _report(10, "analytic and normed constructions are documented as out of "
                "scope; this toolkit covers the algebraic side only", ok)
