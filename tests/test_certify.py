"""The identity battery turns false when one entry of the complex is wrong.

Each identity is checked as one signed sum of products tested for zero.
These tests change one entry of a differential, a codifferential or a level
action, on a copy of a cached complex, and require every identity that can
see the change to fail. Adjointness sees any change of d or dstar (the inner
products are invertible), and the Leibniz rule any change of dstar or of the
action of a p_+ root. The commutator identity sees a change c e_i e_j^T of d_n
exactly when a grade >= 1 action moves e_i on C^{n+1} or reaches e_j on C^n,
and a change of a grade >= 1 action on C^n when d_n has a nonzero column i
or d_{n-1} a nonzero row j; the entries are chosen so that it does.
"""

import pytest

from artifact.certify import (
    verify_cochain_identities,
    verify_codifferential_leibniz,
    verify_differential_commutator,
)
from conftest import complex_for, replaced
from linalg_reference import row_dicts, with_row

CASES = [("A2", (1,), (1, 1)), ("B2", (1,), (0, 1)), ("G2", (1,), (0, 0))]


def battery(cc, tampered=None) -> dict[str, bool]:
    """The three checks over all levels, in the pass ``build_bgg_diagram``
    makes: step n asks for C^{n+1}, then checks the Leibniz rule and the
    commutator at n, which read C^n and C^{n+1} from the complex's two
    levels. ``tampered`` = (n, module) puts ``module`` in the complex's own
    window in place of C^n when the pass first asks for C^n, so every check
    that reads C^n reads it."""
    out = verify_cochain_identities(cc)
    out.update(codifferential_leibniz=True, differential_commutator=True)

    def ask(m):
        cc.level(m)
        if tampered is not None and tampered[0] == m:
            cc._levels[m] = tampered[1]

    ask(0)
    for n in range(cc.top):
        ask(n + 1)
        out["codifferential_leibniz"] &= verify_codifferential_leibniz(cc, n)
        out["differential_commutator"] &= verify_differential_commutator(cc, n)
    return out


def bumped(m, i, j):
    """m with entry (i, j) raised by one; m itself is untouched."""
    row = row_dicts(m).get(i, {})
    return with_row(m, i, {**row, j: row.get(j, 0) + 1})


def raising_support(cc, n) -> set[tuple[int, int]]:
    """The positions of the nonzero entries of the grade >= 1 actions on C^n."""
    g = cc.g
    return {
        (i, j)
        for lab, A in cc.level(n).actions.items() if g.grade_of(lab) >= 1
        for i, j in A.support()
    }


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_untouched_complex_passes(label, sigma, weight):
    assert all(battery(complex_for(label, sigma, weight)).values())


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_tampered_differential_fails(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top):
        moved = sorted(j for _, j in raising_support(cc, n + 1))
        reached = sorted(i for i, _ in raising_support(cc, n))
        i, j = (moved[0], 0) if moved else (0, reached[0])
        dels = dict(cc.dels)
        dels[n] = bumped(dels[n], i, j)
        res = battery(replaced(cc, dels=dels))
        assert not res["adjointness"], n
        assert not res["differential_commutator"], n


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_tampered_codifferential_fails(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top):
        delstars = dict(cc.delstars)
        delstars[n] = bumped(delstars[n], 0, 0)
        res = battery(replaced(cc, delstars=delstars))
        assert not res["adjointness"], n
        assert not res["codifferential_leibniz"], n


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_tampered_level_action_fails(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    lab = ("e", cc.g.pplus_roots()[0])
    seen = 0
    for n in range(cc.top):
        cols = sorted({j for j in range(cc.dim(n)) if cc.dels[n].col_dict(j)})
        rows = sorted(row_dicts(cc.dels[n - 1])) if n >= 1 else []
        i, j = (cols[0], 0) if cols else (rows[0], rows[0]) if rows else (0, 0)
        level = cc.level(n)
        actions = {**level.actions, lab: bumped(level.actions[lab], i, j)}
        res = battery(replaced(cc), tampered=(n, replaced(level, actions=actions)))
        assert not res["codifferential_leibniz"], n
        if cols or rows:
            assert not res["differential_commutator"], n
            seen += 1
    assert seen >= cc.top - 1
