"""The numpy section kernels against plain loop references.

The references below walk the lattice translates and the endpoint runs one
at a time, in the order the vectorised kernels promise, with the same
float operations; the kernels must reproduce them exactly.
"""

import numpy as np
import pytest

from thinsections import _kernels
from thinsections.sections import _compiled
from thinsections.surface import build_surface


@pytest.fixture(scope="module", params=[1, 2])
def surface(request):
    return build_surface(request.param)


def _reference_emit(surface, level, R):
    f = float
    vw = [w for w in surface.walls if w.orient == "v"]
    tang = [f(w.fixed) for w in surface.walls if w.orient == "h"]
    e2y, e3y = f(surface.lattice[1][1]), f(surface.lattice[2][1])
    period = f(surface.plate_period)
    rows, clips, near = [], [], 1e300
    steps = range(int(np.floor(-R - 1.0)), int(np.floor(R)) + 1)
    for k3 in steps:
        for s in steps:
            base = level - s * e2y - k3 * e3y
            k1_lo = int(np.ceil((-1e-6 - base) / period))
            k1_hi = int(np.floor((period + 1e-6 - base) / period))
            for k1 in range(k1_lo, k1_hi + 1):
                yloc = base + k1 * period
                for t in tang:
                    near = min(near, abs(t - yloc))
                for p in surface.plates:
                    z = f(p.level) + k3
                    if z < -R or z > R:
                        continue
                    if not f(p.outer.x2[0]) < yloc < f(p.outer.x2[1]):
                        continue
                    cuts = sorted(((f(h.x1[0]), f(h.x1[1])) for h in p.holes
                                   if f(h.x2[0]) < yloc < f(h.x2[1])),
                                  key=lambda c: c[0])
                    xcur = f(p.outer.x1[0])
                    for a, b in cuts + [(f(p.outer.x1[1]), None)]:
                        xa, xb, c0, c1 = xcur + s, a + s, 0, 0
                        xcur = b
                        if xa < -R:
                            xa, c0 = -R, 1
                        if xb > R:
                            xb, c1 = R, 1
                        if xb - xa > 1e-12:
                            rows.append((xa, z, xb, z))
                            clips.append((c0, c1))
                for w in vw:
                    if not f(w.span[0]) < yloc < f(w.span[1]):
                        continue
                    x = f(w.fixed) + s
                    if x < -R or x > R:
                        continue
                    za, zb, c0, c1 = f(w.x3[0]) + k3, f(w.x3[1]) + k3, 0, 0
                    if za < -R:
                        za, c0 = -R, 1
                    if zb > R:
                        zb, c1 = R, 1
                    if zb - za > 1e-12:
                        rows.append((x, za, x, zb))
                        clips.append((c0, c1))
    return np.array(rows).reshape(-1, 4), np.array(clips, np.uint8).reshape(-1, 2), near


def _reference_match(seg, clip, eps):
    ends = seg.reshape(-1, 2)
    live = sorted((e for e in range(ends.shape[0]) if not clip.flat[e]),
                  key=lambda e: ends[e, 0])
    partner = np.full(ends.shape[0], -1, np.int64)
    i = 0
    while i < len(live):
        j = i + 1
        while j < len(live) and ends[live[j], 0] - ends[live[i], 0] <= eps:
            j += 1
        run = sorted(live[i:j], key=lambda e: ends[e, 1])
        r = 0
        while r < len(run) - 1:
            if ends[run[r + 1], 1] - ends[run[r], 1] <= eps:
                partner[run[r]], partner[run[r + 1]] = run[r + 1], run[r]
                r += 2
            else:
                r += 1
        i = j
    return partner


@pytest.mark.parametrize("R", [0.5, 5.0])
@pytest.mark.parametrize("level", [0.1, 0.37, 0.77])
def test_kernels_match_loop_references(surface, level, R):
    seg, clip, near = _kernels.emit_segments(level, R, *_compiled(surface))
    ref_seg, ref_clip, ref_near = _reference_emit(surface, level, R)
    assert np.array_equal(seg, ref_seg)
    assert np.array_equal(clip, ref_clip)
    assert near == ref_near
    assert seg.dtype == np.float64 and clip.dtype == np.uint8
    partner = _kernels.match_endpoints(seg, clip, 1e-9)
    assert np.array_equal(partner, _reference_match(seg, clip, 1e-9))
