"""Self-contained SVG emitters.

Two pictures: a band complex schematic (support arcs as horizontal
segments, bands as shaded quadrilaterals between their two bases) and a
plane-section plot (bold polylines over a light unit grid).  Output is
a plain string; callers decide where it goes.
"""

_PALETTE = ("#c0392b", "#27ae60", "#2d6cdf", "#8e44ad", "#d35400", "#16a085")

_CLASS_STYLE = {
    "spanning": ("#141466", 2.6),
    "boundary-clipped": ("#2f2f2f", 2.2),
    "closed": ("#a21f1f", 2.6),
}


def _fmt(v):
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _poly_points(pts):
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)


def _line(x0, y0, x1, y1, style):
    return f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" {style}/>\n'


def _document(width, height, body):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )
    return head + body + "</svg>\n"


# Picture widths in px; a section plot is square.
_COMPLEX_WIDTH = 760
_SECTION_WIDTH = 720


def complex_svg(x):
    """Schematic of a band complex.

    Arcs are stacked top to bottom and share one value axis.  A band
    between two arcs is a shaded quadrilateral joining its bases; a band
    with both bases on one arc is lifted above it, with dashed drops
    marking where the lifted edge sits on the arc.
    """
    vals = []
    for arc in x.supports:
        vals.append(float(arc.lo))
        vals.append(float(arc.hi))
    if not vals:
        return _document(_COMPLEX_WIDTH, 80, "")
    vmin, vmax = min(vals), max(vals)
    span = (vmax - vmin) or 1.0
    ml, mr = 40.0, 20.0

    def X(v):
        return ml + (float(v) - vmin) / span * (_COMPLEX_WIDTH - ml - mr)

    same_arc = [b for b in x.bands if b.bottom.arc == b.top.arc]
    lift_room = 30.0 + 16.0 * len(same_arc)
    row_gap = 60.0 + lift_room
    top = lift_room + 24.0
    height = top + row_gap * (len(x.supports) - 1) + 40.0

    def Y(arc):
        return top + row_gap * arc

    body = []
    loops_seen = 0
    for k, b in enumerate(x.bands):
        color = _PALETTE[k % len(_PALETTE)]
        yb, yt = Y(b.bottom.arc), Y(b.top.arc)
        bl, bh = X(b.bottom.lo), X(b.bottom.hi)
        tl, th = X(b.top.lo), X(b.top.hi)
        if b.bottom.arc == b.top.arc:
            loops_seen += 1
            ylift = yb - 14.0 - 16.0 * loops_seen
            quad = [(bl, yb), (bh, yb), (th, ylift), (tl, ylift)]
            for xx in (tl, th):
                body.append(_line(xx, ylift, xx, yt, f'stroke="{color}" stroke-width="1" '
                                  'stroke-dasharray="3 3"'))
        else:
            quad = [(bl, yb), (bh, yb), (th, yt), (tl, yt)]
        body.append(
            f'<polygon points="{_poly_points(quad)}" fill="{color}" '
            f'fill-opacity="0.25" stroke="none"/>\n'
        )
        for (x0, x1, yy) in ((bl, bh, yb), (tl, th, yt)):
            body.append(_line(x0, yy, x1, yy, f'stroke="{color}" stroke-width="5" '
                              'stroke-linecap="butt"'))
        cx = (bl + bh + tl + th) / 4
        cy = (yb + (quad[2][1])) / 2
        body.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="11" fill="{color}" '
            f'text-anchor="middle">b{k} l={b.length}</text>\n'
        )
    for i, arc in enumerate(x.supports):
        y = Y(i)
        x0, x1 = X(arc.lo), X(arc.hi)
        body.append(_line(x0, y, x1, y, 'stroke="black" stroke-width="2"'))
        for xx in (x0, x1):
            body.append(_line(xx, y - 4, xx, y + 4, 'stroke="black" stroke-width="2"'))
        body.append(
            f'<text x="{_fmt(x0 - 26)}" y="{_fmt(y + 4)}" font-size="12" '
            f'fill="black">a{i}</text>\n'
        )
    return _document(_COMPLEX_WIDTH, int(height), "".join(body))


def section_svg(components, radius):
    """Plane-section plot: bold polylines over a light unit grid.

    The window is the square of half-side `radius`; grid lines sit at
    the integers in both directions.
    """
    R = float(radius)
    m = 18.0
    scale = (_SECTION_WIDTH - 2 * m) / (2 * R)

    def px(x):
        return m + (x + R) * scale

    def py(z):
        return m + (R - z) * scale

    body, grid = [], 'stroke="#dcdce6" stroke-width="1"'
    k = 0
    while k <= R:
        for v in ((k,) if k == 0 else (k, -k)):
            body.append(_line(px(v), py(-R), px(v), py(R), grid))
            body.append(_line(px(-R), py(v), px(R), py(v), grid))
        k += 1
    body.append(
        f'<rect x="{_fmt(px(-R))}" y="{_fmt(py(R))}" width="{_fmt(2 * R * scale)}" '
        f'height="{_fmt(2 * R * scale)}" fill="none" stroke="#888888" '
        f'stroke-width="1.2"/>\n'
    )
    for c in components:
        color, w = _CLASS_STYLE[c.window_class]
        for pl in c.polylines:
            pts = [(px(x), py(z)) for x, z in pl]
            body.append(
                f'<polyline points="{_poly_points(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="{w}" stroke-linejoin="round" '
                f'stroke-linecap="round"/>\n'
            )
    return _document(_SECTION_WIDTH, _SECTION_WIDTH, "".join(body))
