"""The identity battery turns false when one entry of the complex is wrong.

Each identity is checked as one signed sum of products tested for zero.
These tests change one entry of a differential, a codifferential, the
action of Lambda^n p_+ or the action of V, on a copy of a cached complex,
and require every identity that can see the change to fail. The action on
C^n is the Kronecker sum A^n_Z = L_Z (x) 1 + 1 (x) M_Z of the two, so a
change of an entry of L_Z or of M_Z is a change of A^n_Z. Adjointness sees
any change of d or dstar (the inner products are invertible), and the
Leibniz rule any change of dstar or of the action of a p_+ root. The
commutator identity sees a change c e_i e_j^T of d_n exactly when a grade
>= 1 action moves e_i on C^{n+1} or reaches e_j on C^n, and a change of a
grade >= 1 action on C^n when d_n has a nonzero column it moves to or
d_{n-1} a nonzero row it moves from; the entries are chosen so that it
does.
"""

import pytest

from artifact.certify import (
    verify_cochain_identities,
    verify_codifferential_leibniz,
    verify_differential_commutator,
)
from conftest import complex_for, level_action, replaced
from linalg_reference import row_dicts, with_row

CASES = [("A2", (1,), (1, 1)), ("B2", (1,), (0, 1)), ("G2", (1,), (0, 0))]


def battery(cc, tampered=None) -> dict[str, bool]:
    """The three checks over all levels, in the pass ``build_bgg_diagram``
    makes: step n asks for Lambda^{n+1}, then checks the Leibniz rule and
    the commutator at n, which read Lambda^n and Lambda^{n+1} from the
    complex's two levels. ``tampered`` = (n, module) puts ``module`` in the
    complex's own window in place of Lambda^n p_+ when the pass first asks
    for it, next to the record's own wedges, so every check that reads
    C^n's action reads it."""
    out = verify_cochain_identities(cc)
    out.update(codifferential_leibniz=True, differential_commutator=True)

    def ask(m):
        cc.wedge_module(m)
        if tampered is not None and tampered[0] == m:
            cc._window[m] = (tampered[1], cc._window[m][1])

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
        for lab in g.p_labels if g.grade_of(lab) >= 1
        for i, j in level_action(cc, n, lab).support()
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
    """One entry (I, J) of L_Z on Lambda^n changes A^n_Z on the rows of
    block I and the columns of block J of C^n, V's dim rows and columns
    each."""
    cc = complex_for(label, sigma, weight)
    lab = ("e", cc.g.pplus_roots[0])
    m = cc.V.dim
    seen = 0
    for n in range(cc.top):
        cols = sorted({j for j in range(cc.dim(n)) if cc.dels[n].col_dict(j)})
        rows = sorted(row_dicts(cc.dels[n - 1])) if n >= 1 else []
        i, j = (cols[0], 0) if cols else (rows[0], rows[0]) if rows else (0, 0)
        lam = cc.wedge_module(n)
        actions = {**lam.actions, lab: bumped(lam.actions[lab], i // m, j // m)}
        res = battery(replaced(cc), tampered=(n, replaced(lam, actions=actions)))
        assert not res["codifferential_leibniz"], n
        if cols or rows:
            assert not res["differential_commutator"], n
            seen += 1
    assert seen >= cc.top - 1


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_tampered_coefficient_action_fails(label, sigma, weight):
    """One entry of M_Z on V changes A^n_Z on every level. The commutator
    sees it in the label Z itself, through the terms eps_a (x) f_a of d, and
    in each label W with Z in some [W, xi_a], through the bracket term
    eps_a (x) M_Z; so it sees it on a one-dimensional V too."""
    cc = complex_for(label, sigma, weight)
    V = cc.V
    lab = ("e", cc.g.pplus_roots[0])
    actions = {**V.actions, lab: bumped(V.actions[lab], 0, 0)}
    res = battery(replaced(cc, V=replaced(V, actions=actions)))
    assert not res["codifferential_leibniz"]
    assert not res["differential_commutator"]
