"""Block-matching motion estimation and compensation.

Two search modes share one public entry point:

- ``method="full"`` (default): exhaustive full search over the square
  window, exact but pruned.  Offsets are visited in nearest-first
  *rings* (equal |dy| + |dx|; radius 7 gives 15 rings), and each ring is
  a handful of array passes over all of its offsets and blocks at once:

  1. successive-elimination lower bounds (|sum(cur) - sum(ref)| <= SAD,
     summed over half-block sub-sums) for every (offset, block) pair,
     read from a strided view of one integral image of the padded
     reference;
  2. the pairs whose bound can still beat the block's best SAD from
     earlier rings are kept;
  3. their true SADs are computed from reference windows gathered in
     fixed-size chunks (bounded memory at any frame size);
  4. per block, the ring's lexicographic minimum of (SAD, offset index)
     is merged into the best with a strict ``<``.

  The result is *exactly* the exhaustive-search motion field: a pair is
  skipped only when the bound shows ``sad < best_sad`` is impossible.
- ``method="diamond"``: the classic large/small diamond search (LDSP +
  SDSP refinement), vectorized across all blocks at once.  Much cheaper,
  approximate — experiment drivers keep full search for reproducibility
  and opt into diamond explicitly (see DESIGN.md).  It computes its SADs
  with the same chunked window gather as full search.

Comparisons use exact SAD values (no float epsilon): SADs of uint8-range
planes are sums of at most a few thousand exactly-representable values,
and every SAD is summed over one C-contiguous ``(k, block, block)``
gather, so it rounds the same way whichever chunk or ring it is in.  The
tie-break is exact: among offsets with equal SAD the first in
nearest-first order wins — within a ring by the (SAD, offset index)
minimum, across rings by the strict ``<`` merge.  The estimated per-block
motion vectors and the prediction residual are the codec internals NEMO's
non-reference reconstruction consumes (Sec. II-A of the paper).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blocks import block_grid_shape, pad_to_blocks

__all__ = ["estimate_motion", "compensate", "upscale_motion_vectors"]

#: Guard band for the successive-elimination bound: sub-block sums come
#: from an integral image whose cumulative float64 rounding error is far
#: below this, so ``lb - _SEA_SLACK >= best_sad`` provably implies the
#: exact SAD cannot win.  Pruning efficiency is unaffected (real SAD gaps
#: are orders of magnitude larger).
_SEA_SLACK = 1e-3

#: Reference windows gathered per SAD chunk.  Bounds the candidate
#: gather at ``_GATHER_CHUNK * block**2`` float64s (2 MiB for 8x8
#: blocks), whatever the frame size — one ring of a 1280x720 search can
#: contest ~400k windows.
_GATHER_CHUNK = 4096


@lru_cache(maxsize=None)
def _search_rings(search_radius: int) -> tuple[np.ndarray, ...]:
    """All (dy, dx) in the window, nearest-first, split into rings.

    Offsets sort by (|dy| + |dx|, dy, dx), so zero motion leads and each
    ring of equal |dy| + |dx| is one contiguous run.  Each ring is a
    read-only ``(k, 2)`` int64 array; radius 7 gives 15 rings.  Cached
    per radius — the rings are identical for every frame of a session.
    """
    window = range(-search_radius, search_radius + 1)
    offsets = sorted(
        ((dy, dx) for dy in window for dx in window),
        key=lambda o: (abs(o[0]) + abs(o[1]), o),
    )
    offsets = np.array(offsets, dtype=np.int64)
    ring = np.abs(offsets).sum(axis=1)
    rings = np.split(offsets, np.flatnonzero(np.diff(ring)) + 1)
    for r in rings:
        r.flags.writeable = False
    return tuple(rings)


def _integral_image(plane: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border row/column."""
    ii = np.zeros((plane.shape[0] + 1, plane.shape[1] + 1), dtype=np.float64)
    np.cumsum(plane, axis=0, out=ii[1:, 1:])
    np.cumsum(ii[1:, 1:], axis=1, out=ii[1:, 1:])
    return ii


def _current_blocks(
    cur: np.ndarray, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The current frame's blocks in raster order and their top-left corners.

    Returns a C-contiguous ``(nblocks, block, block)`` copy and the
    ``(nblocks,)`` row and column of each block's origin.
    """
    ph, pw = cur.shape
    nby, nbx = ph // block, pw // block
    blocks = cur.reshape(nby, block, nbx, block).transpose(0, 2, 1, 3).reshape(-1, block, block)
    blk_y = np.repeat(np.arange(nby, dtype=np.int64) * block, nbx)
    blk_x = np.tile(np.arange(nbx, dtype=np.int64) * block, nby)
    return blocks, blk_y, blk_x


def _window_sads(
    windows: np.ndarray,
    cur_blocks: np.ndarray,
    blk: np.ndarray,
    ys: np.ndarray,
    xs: np.ndarray,
) -> np.ndarray:
    """SAD of each ``cur_blocks[blk[i]]`` against ``windows[ys[i], xs[i]]``.

    ``windows`` is the ``sliding_window_view`` of the padded reference and
    ``cur_blocks`` the ``(nblocks, block, block)`` current blocks.  Each
    chunk gathers C-contiguous ``(k, block, block)`` arrays and sums over
    the last two axes, so every SAD rounds the same way whatever the chunk
    it lands in.  At most :data:`_GATHER_CHUNK` windows are live at once.
    """
    sad = np.empty(blk.size, dtype=np.float64)
    for s in range(0, blk.size, _GATHER_CHUNK):
        e = s + _GATHER_CHUNK
        diff = cur_blocks[blk[s:e]]
        diff -= windows[ys[s:e], xs[s:e]]
        np.abs(diff, out=diff)
        sad[s:e] = diff.sum(axis=(1, 2))
    return sad


def _estimate_full(
    cur: np.ndarray, ref: np.ndarray, block: int, radius: int
) -> np.ndarray:
    """Exhaustive search, one batched successive-elimination pass per ring."""
    ph, pw = cur.shape
    nby, nbx = ph // block, pw // block
    nblk = nby * nbx
    rp = np.pad(ref, radius, mode="edge") if radius else ref
    windows = sliding_window_view(rp, (block, block))

    # Sliding sub-block sums of the padded reference at every position,
    # from one integral image; sub-block sums of the current frame on its
    # block grid.  ``sub`` divides ``block`` so both tile exactly, and
    # ``ref_sub[y0, x0]`` is the (nsy, nsx) sub-sum grid seen at padded
    # origin (y0, x0) — a strided view, no copy.
    sub = block // 2 if block % 2 == 0 and block >= 4 else block
    nsy, nsx = ph // sub, pw // sub
    ii = _integral_image(rp)
    ref_sub_all = ii[sub:, sub:] - ii[:-sub, sub:]
    ref_sub_all -= ii[sub:, :-sub]
    ref_sub_all += ii[:-sub, :-sub]
    del ii
    ref_sub = sliding_window_view(
        ref_sub_all, ((nsy - 1) * sub + 1, (nsx - 1) * sub + 1)
    )[:, :, ::sub, ::sub]
    cur_sub = cur.reshape(nsy, sub, nsx, sub).sum(axis=(1, 3))

    cur_blocks, blk_y, blk_x = _current_blocks(cur, block)
    best_sad = np.full(nblk, np.inf, dtype=np.float64)
    best_mv = np.zeros((nblk, 2), dtype=np.int64)
    all_blk = np.arange(nblk, dtype=np.int64)

    for ring in _search_rings(radius):
        oy = ring[:, 0] + radius
        ox = ring[:, 1] + radius
        # Lower bound per (offset, block): sum of |cur sub-sum - ref
        # sub-sum| over the block's sub-blocks (triangle inequality:
        # <= true SAD), the 2x2 half-block terms added pairwise along y
        # then x.  Pruned against the best SAD of earlier rings.
        k = ring.shape[0]
        lb = ref_sub[oy, ox]
        np.subtract(cur_sub, lb, out=lb)
        np.abs(lb, out=lb)
        if sub != block:
            lb = lb.reshape(k, nby, 2, nsx)
            lb = lb[:, :, 0] + lb[:, :, 1]
            lb = lb.reshape(k, nblk, 2)
            lb = lb[:, :, 0] + lb[:, :, 1]
        oi, blk = np.nonzero(lb.reshape(k, nblk) - _SEA_SLACK < best_sad)
        if blk.size == 0:
            continue
        ring_sad = np.full((k, nblk), np.inf, dtype=np.float64)
        ring_sad[oi, blk] = _window_sads(
            windows, cur_blocks, blk, blk_y[blk] + oy[oi], blk_x[blk] + ox[oi]
        )
        # Per block, the ring's lexicographic minimum of (SAD, offset
        # index) — argmin keeps the first — then a strict ``<`` merge, so
        # an exact tie keeps the nearest-first offset.
        win = ring_sad.argmin(axis=0)
        sad = ring_sad[win, all_blk]
        better = sad < best_sad
        best_sad[better] = sad[better]
        best_mv[better] = ring[win[better]]
    return best_mv.reshape(nby, nbx, 2)


#: Large/small diamond search patterns, nearest-first so exact ties keep
#: the smaller displacement (matching full search's preference).
_LDSP = ((0, 0), (-1, -1), (-1, 1), (1, -1), (1, 1), (-2, 0), (0, -2), (0, 2), (2, 0))
_SDSP = ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0))


def _estimate_diamond(
    cur: np.ndarray, ref: np.ndarray, block: int, radius: int
) -> np.ndarray:
    """Diamond search (LDSP until the centre wins, then one SDSP pass)."""
    ph, pw = cur.shape
    nby, nbx = ph // block, pw // block
    rp = np.pad(ref, radius, mode="edge") if radius else ref
    windows = sliding_window_view(rp, (block, block))
    cur_blocks, blk_y, blk_x = _current_blocks(cur, block)

    def sad_at(my: np.ndarray, mx: np.ndarray, blk: np.ndarray) -> np.ndarray:
        return _window_sads(
            windows, cur_blocks, blk, blk_y[blk] + my + radius, blk_x[blk] + mx + radius
        )

    all_blk = np.arange(nby * nbx, dtype=np.int64)
    center = np.zeros((nby * nbx, 2), dtype=np.int64)
    best = sad_at(center[:, 0], center[:, 1], all_blk)

    def refine(pattern, blk) -> np.ndarray:
        """Move each block in ``blk`` to its best pattern point; return moved mask.

        All pattern points are evaluated around the *same* (frozen) centre
        and the argmin taken — nearest-first pattern order plus strict
        comparison keeps the smaller displacement on exact ties.
        """
        cur_best = best[blk]
        base_y = center[blk, 0]
        base_x = center[blk, 1]
        new_y = base_y.copy()
        new_x = base_x.copy()
        moved = np.zeros(blk.size, dtype=bool)
        for dy, dx in pattern:
            if dy == 0 and dx == 0:
                continue
            cy = np.clip(base_y + dy, -radius, radius)
            cx = np.clip(base_x + dx, -radius, radius)
            sad = sad_at(cy, cx, blk)
            sel = sad < cur_best
            if sel.any():
                cur_best[sel] = sad[sel]
                new_y[sel] = cy[sel]
                new_x[sel] = cx[sel]
                moved |= sel
        best[blk] = cur_best
        center[blk, 0] = new_y
        center[blk, 1] = new_x
        return moved

    if radius > 0:
        active = all_blk
        for _ in range(2 * radius + 2):
            moved = refine(_LDSP, active)
            if not moved.any():
                break
            active = active[moved]
        refine(_SDSP, all_blk)
    return center.reshape(nby, nbx, 2)


def estimate_motion(
    current: np.ndarray,
    reference: np.ndarray,
    block: int = 8,
    search_radius: int = 7,
    method: str = "full",
) -> np.ndarray:
    """Per-block motion vectors (nby, nbx, 2) as (dy, dx) into ``reference``.

    A block at grid position (by, bx) is predicted from the reference
    region starting at ``(by*block + dy, bx*block + dx)``.  ``method`` is
    ``"full"`` (exhaustive, exact, pruned) or ``"diamond"`` (fast,
    approximate).
    """
    current = np.asarray(current, dtype=np.float64)  # reprolint: disable=dtype-discipline -- frozen f64 codec arithmetic
    reference = np.asarray(reference, dtype=np.float64)  # reprolint: disable=dtype-discipline -- frozen f64 codec arithmetic
    if current.shape != reference.shape:
        raise ValueError(
            f"frame shape mismatch: {current.shape} vs {reference.shape}"
        )
    if current.ndim != 2:
        raise ValueError(f"expected 2-D planes, got {current.shape}")
    if search_radius < 0:
        raise ValueError(f"search_radius must be >= 0, got {search_radius}")
    if method not in ("full", "diamond"):
        raise ValueError(f"unknown motion search method {method!r}")

    cur = pad_to_blocks(current, block)
    ref = pad_to_blocks(reference, block)
    if method == "diamond":
        return _estimate_diamond(cur, ref, block, search_radius)
    return _estimate_full(cur, ref, block, search_radius)


def compensate(
    reference: np.ndarray, motion_vectors: np.ndarray, block: int = 8
) -> np.ndarray:
    """Build the motion-compensated prediction of the current frame.

    One fancy-indexed gather over the whole plane: each output pixel reads
    ``ref[clip(y + dy), clip(x + dx)]`` with its block's displacement
    broadcast across the block — bit-identical to the per-block loop it
    replaces.
    """
    reference = np.asarray(reference, dtype=np.float64)  # reprolint: disable=dtype-discipline -- frozen f64 codec arithmetic
    h, w = reference.shape
    nby, nbx = block_grid_shape(h, w, block)
    if motion_vectors.shape != (nby, nbx, 2):
        raise ValueError(
            f"expected motion vectors {(nby, nbx, 2)}, got {motion_vectors.shape}"
        )
    ref = pad_to_blocks(reference, block)
    ph, pw = ref.shape
    mv = np.asarray(motion_vectors, dtype=np.int64)
    dy = np.repeat(np.repeat(mv[:, :, 0], block, axis=0), block, axis=1)
    dx = np.repeat(np.repeat(mv[:, :, 1], block, axis=0), block, axis=1)
    ys = np.clip(np.arange(ph, dtype=np.int64)[:, None] + dy, 0, ph - 1)
    xs = np.clip(np.arange(pw, dtype=np.int64)[None, :] + dx, 0, pw - 1)
    return ref[ys, xs][:h, :w]


def upscale_motion_vectors(
    motion_vectors: np.ndarray, factor: int
) -> np.ndarray:
    """Scale motion vectors for an upscaled frame (NEMO's MV upscaling).

    The block grid keeps the same number of blocks (each block now covers
    ``block*factor`` pixels) and displacements scale by ``factor``.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return np.asarray(motion_vectors) * factor
