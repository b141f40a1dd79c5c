"""Spatial pooling of patch codes and pooling-aware dictionary pruning.

Pruning works by overshooting: learn a dictionary ``overshoot`` times larger
than needed, encode and pool the training patches with it, describe each atom
by its pooled response across training images, and keep the ``final_c`` most
mutually distant atoms under greedy K-centers. The kept atoms are used
unchanged, so encoding cost matches a directly learned dictionary of the same
size.
"""

from __future__ import annotations

import numpy as np

from .coding import CodeMatrix, Dictionary, encode
from .data import PatchGrid
from .dictionary import kcenters, kmeans

POOL_OPS = ("average", "max")


def pool(
    codes: CodeMatrix,
    grid: tuple[int, int],
    regions: tuple[int, int],
    op: str = "average",
) -> CodeMatrix:
    """Pool patch codes over a region grid laid over each image's patch grid.

    ``codes`` rows must be ordered row-major within each image, images
    consecutive. Regions split the patch grid evenly; remainder rows/columns
    go to the last region. The result has one row per image; its columns are
    ordered region row-major with the atom index varying fastest.
    """
    if op not in POOL_OPS:
        raise ValueError(f"op must be one of {POOL_OPS}, got {op!r}")
    gr, gc = grid
    pr, pc = regions
    if gr < 1 or gc < 1:
        raise ValueError(f"patch grid must be positive, got {grid}")
    if not (1 <= pr <= gr and 1 <= pc <= gc):
        raise ValueError(f"region grid {regions} does not fit patch grid {grid}")
    per_image = gr * gc
    if codes.N % per_image != 0:
        raise ValueError(f"code rows {codes.N} not a multiple of patches per image {per_image}")
    images = codes.N // per_image
    c = codes.c

    cube = codes.values.reshape(images, gr, gc, c)
    row_edges = _region_edges(gr, pr)
    col_edges = _region_edges(gc, pc)
    out = np.empty((images, pr * pc * c))
    for ri in range(pr):
        r0, r1 = row_edges[ri]
        for rj in range(pc):
            c0, c1 = col_edges[rj]
            block = cube[:, r0:r1, c0:c1, :]
            if op == "average":
                pooled = block.mean(axis=(1, 2))
            else:
                pooled = block.max(axis=(1, 2))
            reg = ri * pc + rj
            out[:, reg * c : (reg + 1) * c] = pooled
    return CodeMatrix(out)


def _region_edges(n: int, parts: int) -> list[tuple[int, int]]:
    base = n // parts
    edges = [(i * base, (i + 1) * base) for i in range(parts - 1)]
    edges.append(((parts - 1) * base, n))
    return edges


def pdl(
    patches: PatchGrid,
    final_c: int,
    overshoot: int,
    alpha: float,
    regions: tuple[int, int] = (2, 2),
    pool_op: str = "average",
    kmeans_iters: int = 50,
    seed: int = 0,
) -> Dictionary:
    """Pooling-aware dictionary: overshoot with K-means, prune with K-centers.

    Learns ``overshoot * final_c`` unit-norm atoms, encodes and pools the training
    patches, represents every atom by its pooled-response vector over the
    training images, and keeps the ``final_c`` atoms selected by greedy
    farthest-first traversal over those vectors. Selected atoms are returned
    unchanged, in selection order.
    """
    if overshoot < 1:
        raise ValueError(f"overshoot must be >= 1, got {overshoot}")
    if final_c < 1:
        raise ValueError(f"final_c must be >= 1, got {final_c}")
    big_c = overshoot * final_c
    if big_c > patches.patches.N:
        raise ValueError(
            f"need overshoot*final_c <= patch count, got {big_c} > {patches.patches.N}"
        )
    km = kmeans(patches.patches, big_c, kmeans_iters, seed)
    codes = encode(patches.patches, km.dictionary, alpha)
    pooled = pool(codes, (patches.grid_rows, patches.grid_cols), regions, pool_op)

    # one row per atom: its pooled response at every (image, region) coordinate
    atom_profiles = (
        pooled.values.reshape(pooled.N, regions[0] * regions[1], big_c)
        .transpose(2, 0, 1)
        .reshape(big_c, -1)
    )
    selected = kcenters(atom_profiles, final_c, seed)
    return Dictionary(km.dictionary.atoms[:, selected])
