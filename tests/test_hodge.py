"""Cochain complexes, Hodge splits, harmonic cohomology."""

import os
import subprocess
import sys

import pytest

from artifact import bggcore
from artifact.bggcli import main
from artifact.hodge import (
    ComplexNotCertified,
    DegreeOverflow,
    hodge_decompose,
    kostant_oracle,
)
from artifact.linalg import Q, SpMat
from artifact.repmod import positions_by_weight
from conftest import (
    BATTERY,
    GOLDEN_DIMS,
    complex_for,
    complex_for_module,
    components_for,
    graded,
    level_action,
    record_assembled_shapes,
    replaced,
    unit_wedges,
)
from hodge_reference import (
    check_weight_blocks,
    exterior_power,
    laplacian,
    pplus_module,
    reference_del,
    reference_delstar,
    reference_grades,
    reference_harmonic_projection,
    reference_hodge_decompose,
    reference_inner,
    reference_level,
    reference_wedge,
)
from linalg_reference import from_rows, row_dicts, to_dense, with_row

CASES = [
    ("A1", (1,), (3,)),
    ("A2", (1,), (1, 0)),
    ("A2", (1, 2), (0, 0)),
    ("B2", (1,), (0, 1)),
    ("A3", (2,), (1, 0, 0)),
]


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_nilpotency_and_adjointness(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top - 1):
        assert (cc.dels[n + 1] @ cc.dels[n]).is_zero()
        assert (cc.delstars[n] @ cc.delstars[n + 1]).is_zero()
    for n in range(cc.top):
        lhs = cc.delstars[n].transpose() @ cc.inner(n)
        rhs = cc.inner(n + 1) @ cc.dels[n]
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("key", sorted(GOLDEN_DIMS))
def test_golden_dimensions(key):
    label, sigma, lam_mod = key
    chain, harm = GOLDEN_DIMS[key]
    cc = complex_for_module(label, sigma, lam_mod)
    assert [cc.dim(n) for n in range(cc.top + 1)] == chain
    got = [hodge_decompose(cc, n)[0].ncols for n in range(cc.top + 1)]
    assert got == harm


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_hodge_counting_identity(label, sigma, weight):
    """rank d_{n-1} + dim ker box + rank dstar_n = dim C^n, and on each
    weight with harmonic room the three bases fill the weight space."""
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top + 1):
        ker_box, _, blocks = hodge_decompose(cc, n)
        rank_prev = cc.dels[n - 1].rank() if n >= 1 else 0
        rank_next = cc.delstars[n].rank() if n < cc.top else 0
        assert rank_prev + ker_box.ncols + rank_next == cc.dim(n)
        assert sum(kb.ncols for _, _, kb, _ in blocks) == ker_box.ncols
        for rows, bd, kb, bs in blocks:
            assert kb.ncols and bd.ncols + kb.ncols + bs.ncols == len(rows)


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_harmonic_is_joint_kernel(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top + 1):
        K = hodge_decompose(cc, n)[0]
        rows = []
        if n < cc.top:
            rows.append(cc.dels[n])
            assert (cc.dels[n] @ K).is_zero()
        if n >= 1:
            rows.append(cc.delstars[n - 1])
            assert (cc.delstars[n - 1] @ K).is_zero()
        joint = SpMat.vstack(rows) if rows else SpMat(cc.dim(n), cc.dim(n))
        assert joint.kernel_basis().ncols == K.ncols


BENCH_COHOMOLOGY = [("G2", (1,), (1, 1)), ("A4", (2,), (1, 0, 0, 1))]
SPLIT_CASES = [(l, s, w) for l, s, ws in BATTERY for w in ws] + BENCH_COHOMOLOGY


@pytest.mark.parametrize("label,sigma,weight", SPLIT_CASES)
def test_split_equals_laplacian_kernel_reference(label, sigma, weight):
    """The split from the two images is the one the kernels of the Laplacian
    blocks give: ker box and the harmonic weights are equal, and each kept
    weight block holds the reference's three bases on its rows."""
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top + 1):
        ker_box, weights, blocks = hodge_decompose(cc, n)
        want = reference_hodge_decompose(cc, n)
        assert ker_box == want.ker_box
        assert weights == want.harmonic_weights
        for rows, bd, kb, bs in blocks:
            on = set(rows)
            for got, full in ((bd, want.im_del), (kb, want.ker_box), (bs, want.im_delstar)):
                cols = sorted({c for i, c in full.support() if i in on})
                assert full.submatrix(rows, cols) == got


@pytest.mark.parametrize("label,sigma,weight", SPLIT_CASES)
def test_harmonic_projection_equals_the_global_solve(label, sigma, weight):
    """pi_H read per weight off the certificate's blocks is the global
    transpose-solve of the whole Hodge basis, on every level; it kills
    im d_{n-1} and im dstar_n and is the identity on ker box."""
    cc, cohs, _ = components_for(label, sigma, weight)
    for coh in cohs:
        n, P = coh.n, coh.harmonic_projection()
        assert P == reference_harmonic_projection(reference_hodge_decompose(cc, n))
        if n >= 1:
            assert (P @ cc.dels[n - 1]).is_zero()
        if n < cc.top:
            assert (P @ cc.delstars[n]).is_zero()
        assert P @ coh.ker_box == SpMat.identity(coh.ker_box.ncols)


def test_split_of_a_tampered_complex_is_refused():
    """With one differential or codifferential zeroed, on some weight the
    joint kernel no longer fills the room the images leave, or outgrows it;
    the error names the level and the weight."""
    cc = complex_for("A2", (1,), (1, 1))
    for k in range(cc.top):
        for field in ("dels", "delstars"):
            mats = dict(getattr(cc, field))
            mats[k] = SpMat(mats[k].nrows, mats[k].ncols)
            tampered = replaced(cc, **{field: mats})
            with pytest.raises(ComplexNotCertified, match=r"harmonic part of weight \(.*\) of C\^"):
                for n in range(cc.top + 1):
                    hodge_decompose(tampered, n)


def test_split_of_an_overfilled_weight_is_refused():
    """A d_1 whose weight block on (1, 1) has full rank, so that im d and
    im dstar together outrank the weight space of C^2."""
    cc = complex_for("A2", (1, 2), (1, 1))
    n, mu = 2, (1, 1)
    rows = [i for i, w in enumerate(cc.weights[n]) if w == mu]
    below = [j for j, w in enumerate(cc.weights[n - 1]) if w == mu]
    bump = SpMat.from_entries(cc.dim(n), cc.dim(n - 1), {(i, j): 1 for i, j in zip(rows, below)})
    dels = dict(cc.dels)
    dels[n - 1] = dels[n - 1] + bump
    assert dels[n - 1].submatrix(rows, below).rank() == len(rows)
    with pytest.raises(ComplexNotCertified, match=r"overfill weight \(1, 1\) of C\^2"):
        hodge_decompose(replaced(cc, dels=dels), n)


def test_split_with_a_singular_weight_block_is_refused():
    """A dstar_n whose weight block keeps its rank but has im d's first basis
    vector in place of its own first independent column: im d and im dstar
    meet, every count still holds, and only the rank of the square block
    [im d | ker box | im dstar] shows that the split is not a basis."""
    cc = complex_for("A2", (1,), (1, 1))

    def weight_blocks(n, mu):
        rows = positions_by_weight(cc.weights[n])[mu]
        above = positions_by_weight(cc.weights[n + 1]).get(mu, [])
        below = positions_by_weight(cc.weights[n - 1]).get(mu, [])
        bd = cc.dels[n - 1].submatrix(rows, below).column_space_basis()
        indep = cc.delstars[n].submatrix(rows, above).independent_columns()
        return rows, above, bd, indep

    # the first weight of a middle level with both images nonzero
    n, (rows, above, bd, indep) = next(
        (n, wb) for n in range(1, cc.top) for mu in sorted(set(cc.weights[n]))
        if (wb := weight_blocks(n, mu))[2].ncols and wb[3]
    )
    # rows of the transpose are the columns of dstar_n
    cols = row_dicts(cc.delstars[n].transpose())
    for p, q in enumerate(above):
        cols[q] = cols.get(q, {}) if p in indep else {}
    cols[above[indep[0]]] = {rows[i]: v for i, v in bd.col_dict(0).items()}
    delstars = dict(cc.delstars)
    delstars[n] = from_rows(cc.dim(n + 1), cc.dim(n), cols).transpose()
    tampered = replaced(cc, delstars=delstars)
    assert tampered.delstars[n].submatrix(rows, above).independent_columns() == indep
    with pytest.raises(ComplexNotCertified, match=rf"Hodge splitting of C\^{n} is not a basis"):
        hodge_decompose(tampered, n)


def test_kernel_eliminations_only_on_harmonic_weights(monkeypatch):
    """kernel_basis runs once per weight with a harmonic part, and on no
    weight the two images cover; the kernel conditions, the weight blocks
    of dstar_{n-1} and d_n, are sliced only on those weights too. The image
    bases come from two eliminations per level, of the whole d_{n-1} and
    the whole dstar_n, and the block rank runs exactly on the weights where
    two or more of the three bases are nonempty."""
    cc = complex_for("G2", (1,), (1, 1))
    # the weights where two or more bases meet, from the ranks of the blocks
    meeting = 0
    for n in range(cc.top + 1):
        below = positions_by_weight(cc.weights[n - 1])
        above = positions_by_weight(cc.weights[n + 1])
        for mu, rows in positions_by_weight(cc.weights[n]).items():
            rd = cc.dels[n - 1].submatrix(rows, below.get(mu, [])).rank()
            rs = cc.delstars[n].submatrix(rows, above.get(mu, [])).rank()
            meeting += sum(map(bool, (rd, len(rows) - rd - rs, rs))) > 1
    calls = []
    slices = []
    pivoted = []
    ranks = []
    kernel_basis = SpMat.kernel_basis
    submatrix = SpMat.submatrix
    independent_columns = SpMat.independent_columns
    rank = SpMat.rank

    def counted(self):
        calls.append(self.ncols)
        return kernel_basis(self)

    def sliced(self, row_idx, col_idx):
        if any(self is m for m in conditions):
            slices.append(self)
        return submatrix(self, row_idx, col_idx)

    def pivots(self):
        pivoted.append(self)
        return independent_columns(self)

    def ranked(self):
        ranks.append(self.ncols)
        return rank(self)

    monkeypatch.setattr(SpMat, "kernel_basis", counted)
    monkeypatch.setattr(SpMat, "submatrix", sliced)
    monkeypatch.setattr(SpMat, "independent_columns", pivots)
    monkeypatch.setattr(SpMat, "rank", ranked)
    harmonic = 0
    want_slices = 0
    for n in range(cc.top + 1):
        conditions = ([cc.delstars[n - 1]] if n >= 1 else []) + ([cc.dels[n]] if n < cc.top else [])
        pivoted.clear()
        weights = len(set(hodge_decompose(cc, n)[1]))
        assert len(pivoted) == 2
        assert pivoted[0] is cc.dels[n - 1] and pivoted[1] is cc.delstars[n]
        harmonic += weights
        want_slices += weights * len(conditions)
    assert len(calls) == harmonic == 24
    assert len(slices) == want_slices
    assert len(ranks) == meeting == 126
    blocks = sum(len(set(cc.weights[n])) for n in range(cc.top + 1))
    assert blocks == 290


def cross_weight_tampered(field):
    """The complex of A2 {1} (1,1) with one entry of d_1 (``field`` "dels")
    or of dstar_1 ("delstars") set off its weight blocks: at the first
    position whose row and column weights differ."""
    cc = complex_for("A2", (1,), (1, 1))
    mats = dict(getattr(cc, field))
    rows, cols = (2, 1) if field == "dels" else (1, 2)
    i, j = next((i, j) for i, ri in enumerate(cc.weights[rows])
                for j, cj in enumerate(cc.weights[cols]) if ri != cj)
    assert mats[1].get(i, j) == 0
    mats[1] = mats[1] + SpMat.from_entries(cc.dim(rows), cc.dim(cols), {(i, j): 1})
    return replaced(cc, **{field: mats})


@pytest.mark.parametrize("field,name", [("dels", "d"), ("delstars", "dstar")])
def test_a_map_off_its_weight_blocks_is_refused(field, name):
    """The split relies on every map it reads preserving weight, and
    certifies it: a d_1 or dstar_1 with one cross-weight entry is refused,
    naming the map, by the splits of C^1 and C^2, which read it; the split
    of C^0 does not read it."""
    tampered = cross_weight_tampered(field)
    for n in (1, 2):
        with pytest.raises(ComplexNotCertified, match=rf"^{name}_1 does not preserve weight$"):
            hodge_decompose(tampered, n)
    hodge_decompose(tampered, 0)


def test_weight_check_survives_python_O():
    # the weight certificate is an explicit check, so -O keeps it
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        "import sys\n"
        "from artifact.hodge import ComplexNotCertified, hodge_decompose\n"
        "from test_hodge import cross_weight_tampered\n"
        "if sys.flags.optimize < 1: sys.exit(3)\n"
        "try:\n"
        "    hodge_decompose(cross_weight_tampered('dels'), 1)\n"
        "except ComplexNotCertified as exc:\n"
        "    sys.exit(0 if str(exc) == 'd_1 does not preserve weight' else 5)\n"
        "sys.exit(4)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=here, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


def test_a_cross_weight_map_exits_1_from_the_cli(monkeypatch, capsys):
    """Through the CLI the refusal is exit 1 and one error line, with no
    report."""
    monkeypatch.setattr(bggcore, "build_cochain_complex",
                        lambda g, V: cross_weight_tampered("dels"))
    argv = ["--algebra", "A2", "--cross", "1", "--weight", "1,1", "cohomology"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ComplexNotCertified: d_1 does not preserve weight\n"


@pytest.mark.parametrize("label,sigma,weight", [("G2", (1,), (1, 1)), ("A4", (2,), (1, 0, 0, 1))],
                         ids=["G2", "A4"])
def test_split_assembles_no_level_square(monkeypatch, label, sigma, weight):
    """The certificate ranks each weight's square block on its own: no
    dim C^n x dim C^n matrix is assembled on any level (the bench
    `cohomology` cases, where every level has more than one weight)."""
    cc = complex_for(label, sigma, weight)
    shapes = record_assembled_shapes(monkeypatch)
    for n in range(cc.top + 1):
        assert len(set(cc.weights[n])) > 1
        shapes.clear()
        hodge_decompose(cc, n)
        assert shapes
        assert (cc.dim(n), cc.dim(n)) not in shapes, n


def test_laplacian_selfadjoint_and_weight_diagonal():
    cc = complex_for("B2", (1,), (0, 1))
    for n in range(cc.top + 1):
        box = laplacian(cc, n)
        gb = cc.inner(n) @ box
        assert (gb - gb.transpose()).is_zero()
        ws = cc.weights[n]
        for r, c, _ in box.entries():
            assert ws[r] == ws[c]


def test_borel_sl3_normalization_pins():
    # regression pins for the chosen dual-basis normalization, (x|y) = B / 2h^vee:
    # d_n moved by 2h^vee = 6 from the pairing by B (-1/3 -> -2), dstar did not
    cc = complex_for("A2", (1, 2), (0, 0))
    assert cc.wedge_tuples[1] == [(0,), (1,), (2,)]
    assert cc.wedge_tuples[2] == [(0, 1), (0, 2), (1, 2)]
    # theta = alpha_1 + alpha_2 sits at slot 2
    assert cc.dels[1].col_dict(2) == {0: -2}
    assert cc.delstars[1].col_dict(0) == {2: Q(1)}


def test_sl2_box_pins():
    # box = d dstar + dstar d moved with d by 2h^vee = 4 (-1/4 -> -1)
    cc = complex_for("A1", (1,), (1,))
    assert to_dense(laplacian(cc, 0)) == [[-1, 0], [0, 0]]
    assert to_dense(laplacian(cc, 1)) == [[0, 0], [0, -1]]


def test_cohomology_module_structure():
    _, cohs, _ = components_for("A2", (1,), (1, 1))
    cc = complex_for("A2", (1,), (1, 1))
    for coh in cohs:
        mod = coh.module
        K = coh.ker_box
        for l in cc.g.p_labels:
            if cc.g.grade_of(l) > 0:
                assert mod.actions[l].is_zero()
            else:
                # embedding intertwines the level action with the quotient
                A = reference_level(cc, coh.n).actions[l]
                assert (A @ K - K @ mod.actions[l]).is_zero()
        assert mod.weights == hodge_decompose(cc, coh.n)[1]


def test_harmonic_projection_inverts_the_hodge_basis():
    """P_H @ full_basis = [0 | 1 | 0] for the reference Hodge basis, so P_H
    is the ker box rows of its inverse; it is computed once and kept."""
    cc, cohs, _ = components_for("A2", (1,), (1, 1))
    for coh in cohs:
        sp = reference_hodge_decompose(cc, coh.n)
        P = coh.harmonic_projection()
        off, h = sp.im_del.ncols, sp.ker_box.ncols
        want = SpMat.identity(h).transpose().place_rows(
            list(range(off, off + h)), sp.full_basis.ncols).transpose()
        assert P @ sp.full_basis == want
        assert coh.harmonic_projection() is P


def test_cohomology_command_computes_no_projection(monkeypatch, capsys):
    import artifact.bggcli as bggcli
    from artifact.hodge import Cohomology

    def refuse(self):
        raise AssertionError("harmonic projection computed")

    monkeypatch.setattr(Cohomology, "harmonic_projection", refuse)
    argv = ["--algebra", "A2", "--cross", "1", "--weight", "1,1", "cohomology"]
    assert bggcli.main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "label,sigma,weight",
    [("A2", (1,), (1, 0)), ("B2", (1,), (0, 1)), ("A3", (1, 3), (0, 0, 0))],
)
def test_kostant_oracle_matches_harmonics(label, sigma, weight):
    from artifact.rootspace import dominant_representative_for

    g = graded(label, sigma)
    cc, cohs, comps = components_for(label, sigma, weight)
    lam_mod = dominant_representative_for(g.rs, range(1, g.rs.rank + 1), tuple(-x for x in weight))
    predicted = kostant_oracle(g, lam_mod)
    assert len(predicted) == cc.top + 1
    for n in range(cc.top + 1):
        got = sorted(c.label for c in comps[n])
        assert got == list(predicted[n])
        # one record per component: H^n is multiplicity free (Kostant)
        assert len(set(got)) == len(got)


def test_unit_wedges_satisfy_canonical_anticommutation():
    """eps_a eps_b + eps_b eps_a = 0 and iota_a eps_b + eps_b iota_a =
    delta_ab on every level, with iota_a = eps_a^T, for the wedges
    eps_a (x) 1_V on C^n placed as the complex's readers place them."""
    for label, sigma, weight in [("B2", (1,), (0, 0)), ("A2", (1, 2), (1, 0)),
                                 ("G2", (1,), (0, 0))]:
        cc = complex_for(label, sigma, weight)
        d = len(cc.g.pplus_roots)
        for n in range(cc.top + 1):
            dim = cc.dim(n)
            eps = unit_wedges(cc, n) if n < cc.top else []
            below = unit_wedges(cc, n - 1) if n >= 1 else []
            above = unit_wedges(cc, n + 1) if n + 1 < cc.top else []
            for a in range(d):
                for b in range(d):
                    if above:
                        assert SpMat.assemble(cc.dim(n + 2), dim, [
                            (0, 0, 1, (above[a], eps[b])), (0, 0, 1, (above[b], eps[a])),
                        ]).is_zero()
                    blocks = [(0, 0, -int(a == b), SpMat.identity(dim))]
                    if eps:
                        blocks.append((0, 0, 1, (eps[a].transpose(), eps[b])))
                    if below:
                        blocks.append((0, 0, 1, (below[b], below[a].transpose())))
                    assert SpMat.assemble(dim, dim, blocks).is_zero(), (label, n, a, b)


def test_wedge_overflow():
    cc = complex_for("A1", (1,), (0,))
    with pytest.raises(DegreeOverflow):
        unit_wedges(cc, cc.top + 1)


REFERENCE_CASES = [(l, s, w) for l, s, ws in BATTERY for w in ws] + [
    ("G2", (1,), (1, 1)), ("B3", (1, 2, 3), (0, 0, 0)), ("G2", (1, 2), (1, 1)),
]


@pytest.mark.parametrize("label,sigma,weight", REFERENCE_CASES)
def test_complex_equals_decomposable_reference(label, sigma, weight):
    """Every action of Lambda^n p_+ and of the level, d, dstar, unit wedge and
    inner product built from eps_a and iota_a equals the decomposable
    formula, entry for entry; the level action and the unit wedge are the
    Kronecker sum and product the complex's readers place as blocks,
    assembled."""
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top + 1):
        want = reference_level(cc, n)
        assert cc.wedge_module(n).actions == exterior_power(pplus_module(cc.g), n).actions
        assert {lab: level_action(cc, n, lab) for lab in want.actions} == want.actions
        assert (cc.dim(n), cc.weights[n]) == (want.dim, want.weights)
        assert tuple(cc.g.e_eigenvalue(mu) for mu in cc.weights[n]) == reference_grades(cc, n)
        assert cc.inner(n) == reference_inner(cc, n)
        if n < cc.top:
            assert cc.dels[n] == reference_del(cc, n)
            assert cc.delstars[n] == reference_delstar(cc, n)
            assert unit_wedges(cc, n) == [reference_wedge(cc, n, a)
                                          for a in range(len(cc.g.pplus_roots))]


def test_weight_block_certificate_refuses_moved_column():
    cc = complex_for("A2", (1,), (1, 1))
    n = 1
    weights = cc.weights[n]
    basis = reference_hodge_decompose(cc, n).full_basis
    check_weight_blocks(weights, basis, n)
    # column 0 moved onto a row of another weight: one block loses a column,
    # the other gains one, and the rank of the whole basis may not show it
    cols = basis.transpose()
    rows = row_dicts(cols)
    mu = weights[min(rows[0])]
    other = next(i for i, w in enumerate(weights) if w != mu)
    moved = with_row(cols, 0, {other: 1})
    with pytest.raises(ComplexNotCertified, match="not a basis"):
        check_weight_blocks(weights, moved.transpose(), n)
    # one column too many: its block keeps full rank but is not square
    with pytest.raises(ComplexNotCertified, match="not a basis"):
        check_weight_blocks(weights, SpMat.hstack([basis, basis.select_columns([0])]), n)
    # column 0 spread over two weights
    spread = with_row(cols, 0, {**rows[0], other: 1})
    with pytest.raises(ComplexNotCertified, match="not a weight vector"):
        check_weight_blocks(weights, spread.transpose(), n)
    # a block of the right size but singular
    seen = {}
    for c in sorted(rows):
        w = weights[min(rows[c])]
        if w in seen:
            break
        seen[w] = c
    singular = with_row(cols, c, dict(rows[seen[w]]))
    with pytest.raises(ComplexNotCertified, match="not a basis"):
        check_weight_blocks(weights, singular.transpose(), n)


@pytest.mark.parametrize("label,sigma,weights", BATTERY,
                         ids=[f"{l}-{','.join(map(str, s))}" for l, s, _ in BATTERY])
def test_complex_entries_are_exact_and_normalized(label, sigma, weights):
    """No stored entry is a float, and integral entries are stored as int."""
    for weight in weights:
        cc, cohs, _ = components_for(label, sigma, weight)
        mats = [*cc.dels.values(), *cc.delstars.values()] + [cc.inner(n) for n in range(cc.top + 1)]
        for coh in cohs:
            mats += [coh.ker_box, coh.harmonic_projection()]
            mats += [m for rows, *bases in coh.blocks for m in bases]
            mats += list(coh.module.actions.values())
        for M in mats:
            for _, _, v in M.entries():
                assert not isinstance(v, float)
                assert type(v) is int or v.denominator != 1, (label, weight, v)


@pytest.mark.parametrize("label,sigma,weights", BATTERY,
                         ids=[f"{l}-{','.join(map(str, s))}" for l, s, _ in BATTERY])
def test_e_grade_is_the_eigenvalue_of_the_weight(label, sigma, weights):
    """No E-grade is stored: the pipeline reads it as ``g.e_eigenvalue`` of a
    coordinate's weight. On every level of C^n that agrees with the grade
    summed from the wedge's p_+ roots, and on every harmonic module with the
    grade of each C^n row its basis vector is supported on."""
    for weight in weights:
        cc, cohs, _ = components_for(label, sigma, weight)
        g = cc.g
        for coh in cohs:
            want = reference_grades(cc, coh.n)
            assert tuple(g.e_eigenvalue(mu) for mu in cc.weights[coh.n]) == want
            for i, k in coh.ker_box.support():
                assert g.e_eigenvalue(coh.module.weights[k]) == want[i], (coh.n, i, k)
