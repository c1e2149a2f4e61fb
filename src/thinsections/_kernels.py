"""Numeric kernels for plane-section tracing, in plain numpy.

``emit_segments`` and ``match_endpoints`` are array code over the lattice
translates and over the segment endpoints, which pair by exact integer
keys; Python loops run only over the pieces of one fundamental domain.
"""

import numpy as np

# Kept for the benchmark's environment record: there is no compiled path.
USING_NUMBA = False


# (k3, s) cells per block of translates: bounds emit_segments' temporaries
# (one block up to R = 63); a block always holds at least one k3 value.
_BLOCK_CELLS = 1 << 14


def emit_segments(level, R, plates, walls, tang_y, e2y, period, e3y, dx, dz):
    """Intersect the window [-R, R]^2 of the plane x2 = level with every
    lattice translate of the fundamental pieces.

    ``plates`` holds (z, x0, x1, y0, y1, holes) with each plate's holes as
    (x0, x1, y0, y1) in order of x0, ``walls`` the vertical walls as
    (x, y0, y1, z0, z1); x1 are integers over ``dx``, x3 integers over
    ``dz``.  Returns (segments, keys, tangency distance).  Segments are rows
    (x0, z0, x1, z1) with z0 == z1 for plate traces and x0 == x1 for wall
    traces, ordered by translate (k3, then s, then k1), then plate pieces
    left to right, then walls.  A translate moves x1 by s and x3 by k3; an
    endpoint (x, z) in the window has the int32 key (dx x + xoff)(2 zoff + 1)
    + dz z + zoff, xoff = floor(dx R) + 1 and zoff = floor(dz R) + 1, so
    equal keys are one point (callers keep keys below 2^31), and an
    endpoint made by the window cut has key -1.
    The tangency distance is the smallest |level - y| over every tangency
    face of an enumerated translate, for the caller's near-saddle guard;
    with no plates and no walls only the translates are enumerated.
    """
    steps = np.arange(int(np.floor(-R - 1.0)), int(np.floor(R)) + 1)
    k3_block = max(1, _BLOCK_CELLS // steps.shape[0])
    blocks = [_emit_block(level, R, steps[i:i + k3_block], steps, plates, walls,
                          tang_y, e2y, period, e3y, dx, dz)
              for i in range(0, steps.shape[0], k3_block)]
    near = min(b[2] for b in blocks)
    rows = np.cumsum([0] + [b[0].shape[0] for b in blocks])
    seg, key = np.empty((rows[-1], 4)), np.empty((rows[-1], 2), np.int32)
    # copy the blocks out one at a time, releasing each once it is copied
    for k in range(len(blocks)):
        seg[rows[k]:rows[k + 1]], key[rows[k]:rows[k + 1]], _ = blocks[k]
        blocks[k] = None
    return seg, key, near


def _emit_block(level, R, k3s, steps, plates, walls, tang_y, e2y, period, e3y, dx, dz):
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
    if not (plates or walls):
        return np.empty((0, 4)), np.empty((0, 2), np.int32), near
    xoff, zoff = int(dx * R) + 1, int(dz * R) + 1
    width = 2 * zoff + 1
    # the key of each translate's origin; an end adds its key in the translate
    shift = ((dx * s + xoff) * width + dz * k3 + zoff).astype(np.int32)

    picked = []  # per row slot: translates emitting it, then its six columns

    def slot(keep, x0, z0, x1, z1, c0, c1, ka, kb):  # ka: yloc-shaped or an int
        at = np.flatnonzero(keep)
        t = shift[at]
        ka = ka[at] + t if isinstance(ka, np.ndarray) else t + ka
        ka[c0[at]] = -1
        t += kb
        t[c1[at]] = -1
        picked.append((at, [x0[at], z0[at], x1[at], z1[at], ka, t]))

    for iz, ix0, ix1, y0, y1, holes in plates:
        z = iz / dz + k3
        on = (z >= -R) & (z <= R) & (yloc > y0) & (yloc < y1)
        xcur, kcur = np.full(yloc.shape, ix0 / dx), np.full(yloc.shape, ix0 * width + iz, np.int32)
        for hx0, hx1, hy0, hy1 in (*holes, (ix1, None, -np.inf, np.inf)):
            cut = (yloc > hy0) & (yloc < hy1)
            xa, xb = xcur + s, hx0 / dx + s
            c0, c1 = xa < -R, xb > R
            xa, xb = np.where(c0, -R, xa), np.where(c1, R, xb)
            slot(on & cut & (xb - xa > 1e-12), xa, z, xb, z, c0, c1, kcur, hx0 * width + iz)
            if hx1 is not None:
                xcur = np.where(cut, hx1 / dx, xcur)
                kcur = np.where(cut, hx1 * width + iz, kcur)
    for ix, y0, y1, iz0, iz1 in walls:
        x = ix / dx + s
        za, zb = iz0 / dz + k3, iz1 / dz + k3
        c0, c1 = za < -R, zb > R
        za, zb = np.where(c0, -R, za), np.where(c1, R, zb)
        keep = (yloc > y0) & (yloc < y1) & (x >= -R) & (x <= R) & (zb - za > 1e-12)
        slot(keep, x, za, x, zb, c0, c1, ix * width + iz0, ix * width + iz1)

    # a stable sort by translate keeps the slot order within each translate
    order = np.argsort(np.concatenate([at for at, _ in picked]), kind="stable")
    col = [np.concatenate([cols[k] for _, cols in picked])[order] for k in range(6)]
    return np.stack(col[:4], axis=1), np.stack(col[4:], axis=1), near


def match_endpoints(key):
    """Pair the endpoints with equal keys: key[i] holds those of endpoints
    2*i and 2*i + 1 of segment i, and -1 never pairs.  One sort of
    key << bits | endpoint orders them by key, then by index (int32 keys
    leave 32 bits for the index); a run of equal keys pairs its 1st and 2nd
    endpoints, its 3rd and 4th, ...  Returns the partner of every
    endpoint, -1 for an unmatched one.
    """
    key = key.ravel()
    bits = (key.shape[0] - 1).bit_length()
    idx = np.flatnonzero(key >= 0)
    packed = key[idx].astype(np.int64)
    packed <<= bits
    packed |= idx
    del idx
    packed.sort()
    lo = _pair_starts(np.diff(packed >> bits) == 0)
    packed &= (1 << bits) - 1
    a, b = packed[lo], packed[lo + 1]
    partner = np.full(key.shape[0], -1, np.int64)
    partner[a], partner[b] = b, a
    return partner


def _pair_starts(link):
    """Positions i paired with i + 1: a chain of links pairs its 1st and
    2nd endpoints, its 3rd and 4th, ..."""
    pos = np.arange(link.shape[0])
    chain_start = np.maximum.accumulate(np.where(link, 0, pos + 1))
    return pos[link & ((pos - chain_start) % 2 == 0)]
