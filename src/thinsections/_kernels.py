"""Numeric kernels for plane-section tracing, in plain numpy.

``emit_segments`` and ``match_endpoints`` are array code over the lattice
translates and over the segment endpoints; Python loops run only over the
few plates, holes and walls of one fundamental domain.
"""

import numpy as np

# Kept for the benchmark's environment record: there is no compiled path.
USING_NUMBA = False


# (k3, s) cells per block of translates: bounds emit_segments' temporaries
# (one block up to R = 63); a block always holds at least one k3 value.
_BLOCK_CELLS = 1 << 14


def emit_segments(level, R, plates, walls, tang_y, e2y, period, e3y):
    """Intersect the window [-R, R]^2 of the plane x2 = level with every
    lattice translate of the fundamental pieces.

    ``plates`` holds (z, x0, x1, y0, y1, holes) with each plate's holes as
    (x0, x1, y0, y1) in order of x0; ``walls`` holds the vertical walls as
    (x, y0, y1, z0, z1).  Returns (segments, clip flags, tangency distance).
    Segments are rows (x0, z0, x1, z1) with z0 == z1 for plate traces and
    x0 == x1 for wall traces, ordered by translate (k3, then s, then k1),
    then plate pieces left to right, then walls.  A clip flag marks an
    endpoint produced by the window cut.  The tangency distance is the
    smallest |level - y| over every tangency face of an enumerated
    translate, for the caller's near-saddle guard.  With no plates and no
    walls only the translates are enumerated: no rows, and the same
    tangency distance as with the pieces.
    """
    steps = np.arange(int(np.floor(-R - 1.0)), int(np.floor(R)) + 1)
    k3_block = max(1, _BLOCK_CELLS // steps.shape[0])
    blocks = [_emit_block(level, R, steps[i:i + k3_block], steps, plates, walls,
                          tang_y, e2y, period, e3y)
              for i in range(0, steps.shape[0], k3_block)]
    near = min(b[2] for b in blocks)
    rows = np.cumsum([0] + [b[0].shape[0] for b in blocks])
    seg, clip = np.empty((rows[-1], 4)), np.empty((rows[-1], 2), np.uint8)
    # copy the blocks out one at a time, releasing each once it is copied
    for k in range(len(blocks)):
        seg[rows[k]:rows[k + 1]], clip[rows[k]:rows[k + 1]], _ = blocks[k]
        blocks[k] = None
    return seg, clip, near


def _emit_block(level, R, k3s, steps, plates, walls, tang_y, e2y, period, e3y):
    """emit_segments for the translates whose k3 lies in ``k3s``."""
    margin = 1e-6
    # translates: (k3, s) cells in row-major order, then k1 within a cell
    base = (level - steps[None, :] * e2y - k3s[:, None] * e3y).ravel()
    k1_lo = np.ceil((-margin - base) / period).astype(np.int64)
    k1_hi = np.floor((period + margin - base) / period).astype(np.int64)
    reps = np.maximum(k1_hi - k1_lo + 1, 0)
    cell = np.repeat(np.arange(base.shape[0]), reps)
    k1 = k1_lo[cell] + np.arange(cell.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
    k3 = k3s[cell // steps.shape[0]]
    s = steps[cell % steps.shape[0]]
    yloc = base[cell] + k1 * period
    near = 1e300
    if yloc.shape[0]:
        for t in tang_y:
            near = min(near, float(np.abs(t - yloc).min()))

    picked = []  # per row slot: translates emitting it, then its six columns

    def slot(keep, *cols):  # every column is a yloc-shaped array
        at = np.flatnonzero(keep)
        picked.append((at, [c[at] for c in cols]))

    for z0, x0, x1, y0, y1, holes in plates:
        z = z0 + k3
        on = (z >= -R) & (z <= R) & (yloc > y0) & (yloc < y1)
        xcur = np.full(yloc.shape, x0)
        for hx0, hx1, hy0, hy1 in (*holes, (x1, None, -np.inf, np.inf)):
            cut = (yloc > hy0) & (yloc < hy1)
            xa, xb = xcur + s, hx0 + s
            c0, c1 = xa < -R, xb > R
            xa, xb = np.where(c0, -R, xa), np.where(c1, R, xb)
            slot(on & cut & (xb - xa > 1e-12), xa, z, xb, z, c0, c1)
            if hx1 is not None:
                xcur = np.where(cut, hx1, xcur)
    for x, y0, y1, z0, z1 in walls:
        x = x + s
        za, zb = z0 + k3, z1 + k3
        c0, c1 = za < -R, zb > R
        za, zb = np.where(c0, -R, za), np.where(c1, R, zb)
        keep = (yloc > y0) & (yloc < y1) & (x >= -R) & (x <= R) & (zb - za > 1e-12)
        slot(keep, x, za, x, zb, c0, c1)

    if not picked:
        return np.empty((0, 4)), np.empty((0, 2), np.uint8), near
    # a stable sort by translate keeps the slot order within each translate
    order = np.argsort(np.concatenate([at for at, _ in picked]), kind="stable")
    col = [np.concatenate([cols[k] for _, cols in picked])[order] for k in range(6)]
    return np.stack(col[:4], axis=1), np.stack(col[4:], axis=1).astype(np.uint8), near


def match_endpoints(seg, clip, eps):
    """Pair coincident unclipped segment endpoints.

    Endpoint 2*i is the (x0, z0) end of segment i and 2*i + 1 the other end.
    Endpoints fall into runs of x coordinates, each gap wider than eps
    starting a new run; inside a run they are sorted by z and neighbours
    within eps are paired greedily from the bottom.  The section curves are
    embedded, so every endpoint has at most one partner.  Returns the
    partner endpoint of every endpoint, -1 for an unmatched one.
    """
    ends = seg.reshape(-1, 2)
    idx = np.flatnonzero(clip.ravel() == 0)
    # each endpoint-length temporary is dropped as soon as it is used
    run = _runs(ends[idx, 0], eps)
    order = np.lexsort((ends[idx, 1], run))
    run, idx = run[order], idx[order]
    del order
    link = np.diff(run) == 0  # labels are unsigned: compare the diff with 0 only
    del run
    link &= np.diff(ends[idx, 1]) <= eps
    lo = _pair_starts(link)
    del link
    a, b = idx[lo], idx[lo + 1]
    del idx, lo
    partner = np.full(ends.shape[0], -1, np.int64)
    partner[a] = b
    partner[b] = a
    return partner


def _runs(x, eps):
    """Run label of every x: sorted, a gap wider than eps starts a new run.
    A label is the number of run starts at or below x, less one, so ties need
    no order; labels have the smallest unsigned dtype, which lexsort radix-sorts."""
    xs = np.sort(x)
    starts = xs[np.append(True, np.diff(xs) > eps)]
    run = np.searchsorted(starts, x, side="right") - 1
    return run.astype(np.min_scalar_type(starts.shape[0]))


def _pair_starts(link):
    """Positions i paired with i + 1: a chain of links pairs its 1st and
    2nd endpoints, its 3rd and 4th, ..."""
    pos = np.arange(link.shape[0])
    chain_start = np.maximum.accumulate(np.where(link, 0, pos + 1))
    return pos[link & ((pos - chain_start) % 2 == 0)]

