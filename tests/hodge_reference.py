"""Reference Hodge split: the Laplacian and its kernel, weight by weight.

``artifact.hodge.hodge_decompose`` builds no Laplacian: it takes the harmonic
part of each weight as ker d ∩ ker dstar, and only on the weights the two
images leave uncovered. This is the construction it replaced, kept so the
tests can compare the two splits matrix by matrix: the whole Laplacian
box = d dstar + dstar d of the level is built once, and every weight block
of it is eliminated.
"""

from __future__ import annotations

from artifact.hodge import CochainComplex, HodgeSplit, check_weight_blocks
from artifact.linalg import SpMat
from artifact.repmod import positions_by_weight


def laplacian(cc: CochainComplex, n: int) -> SpMat:
    """box = d dstar + dstar d on C^n (signs included in the maps), summed in
    one accumulation."""
    dim = cc.dim(n)
    blocks = []
    if n >= 1:
        blocks.append((0, 0, 1, (cc.dels[n - 1], cc.delstars[n - 1])))
    if n < cc.top:
        blocks.append((0, 0, 1, (cc.delstars[n], cc.dels[n])))
    return SpMat.assemble(dim, dim, blocks)


def reference_hodge_decompose(cc: CochainComplex, n: int) -> HodgeSplit:
    """C^n = im d + ker box + im dstar, with ker box the kernel of every
    weight block of the Laplacian."""
    level = cc.levels[n]
    dim = level.dim
    by_weight = positions_by_weight(level.weights)
    below = positions_by_weight(cc.levels[n - 1].weights) if n >= 1 else {}
    above = positions_by_weight(cc.levels[n + 1].weights) if n < cc.top else {}
    box = laplacian(cc, n)
    im_del_cols: list[SpMat] = []
    ker_cols: list[SpMat] = []
    im_ds_cols: list[SpMat] = []
    ker_weights = []

    for mu in sorted(by_weight):
        rows = by_weight[mu]
        if n >= 1:
            base = cc.dels[n - 1].submatrix(rows, below.get(mu, [])).column_space_basis()
            if base.ncols:
                im_del_cols.append(base.place_rows(rows, dim))
        kb = box.submatrix(rows, rows).kernel_basis()
        if kb.ncols:
            ker_cols.append(kb.place_rows(rows, dim))
            ker_weights.extend([mu] * kb.ncols)
        if n < cc.top:
            base = cc.delstars[n].submatrix(rows, above.get(mu, [])).column_space_basis()
            if base.ncols:
                im_ds_cols.append(base.place_rows(rows, dim))

    def cat(cols):
        return SpMat.hstack(cols) if cols else SpMat(dim, 0)

    split = HodgeSplit(
        n=n,
        im_del=cat(im_del_cols),
        ker_box=cat(ker_cols),
        im_delstar=cat(im_ds_cols),
        harmonic_weights=tuple(ker_weights),
    )
    check_weight_blocks(level.weights, split.full_basis, n)
    return split
