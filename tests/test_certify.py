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

from dataclasses import replace

import pytest

from artifact.certify import (
    verify_cochain_identities,
    verify_codifferential_leibniz,
    verify_differential_commutator,
)
from conftest import complex_for
from linalg_reference import row_dicts, with_row

CASES = [("A2", (1,), (1, 1)), ("B2", (1,), (0, 1)), ("G2", (1,), (0, 0))]


def battery(cc) -> dict[str, bool]:
    out = verify_cochain_identities(cc)
    out["codifferential_leibniz"] = verify_codifferential_leibniz(cc)
    out["differential_commutator"] = verify_differential_commutator(cc)
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
        for lab, A in cc.levels[n].actions.items() if g.grade_of(lab) >= 1
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
        dels = list(cc.dels)
        dels[n] = bumped(dels[n], i, j)
        res = battery(replace(cc, dels=dels))
        assert not res["adjointness"], n
        assert not res["differential_commutator"], n


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_tampered_codifferential_fails(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top):
        delstars = list(cc.delstars)
        delstars[n] = bumped(delstars[n], 0, 0)
        res = battery(replace(cc, delstars=delstars))
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
        level = cc.levels[n]
        actions = {**level.actions, lab: bumped(level.actions[lab], i, j)}
        levels = list(cc.levels)
        levels[n] = replace(level, actions=actions)
        res = battery(replace(cc, levels=levels))
        assert not res["codifferential_leibniz"], n
        if cols or rows:
            assert not res["differential_commutator"], n
            seen += 1
    assert seen >= cc.top - 1
