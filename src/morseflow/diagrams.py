"""Line-drawing SVG output for families and spectral traces.

Every picture is a pure function of its input: fixed canvas, fixed
palette, coordinates formatted to two decimals, elements emitted in
declaration order.  Re-running a command therefore reproduces the
output byte for byte.
"""

import bisect

from . import __version__
from .bifurcation import Birth, Death

VERSION_COMMENT = "<!-- morseflow %s -->" % __version__

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")

# canvas sizes in pixels: (width, height)
_FAMILY_SIZE = (720, 440)
_TRACE_SIZE = (720, 320)


def _fmt(x):
    s = "%.2f" % float(x)
    return "0.00" if s == "-0.00" else s


def _svg(fr, body):
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d" font-family="monospace" font-size="11">'
            % (fr.w, fr.h, fr.w, fr.h))
    return "\n".join([head, VERSION_COMMENT,
                      '<rect width="%d" height="%d" fill="#ffffff"/>'
                      % (fr.w, fr.h)] + body + ["</svg>", ""])


class _Frame:
    """Affine map from (parameter, value) to canvas pixels, value axis up."""

    def __init__(self, size, vlo, vhi):
        self.ml, self.mr, self.mt, self.mb = 56, 16, 28, 30
        self.w, self.h = size
        if vhi <= vlo:
            vhi = vlo + 1
        pad = (vhi - vlo) / 12
        vlo, vhi = vlo - pad, vhi + pad
        self.top, self.span = float(vhi), float(vhi - vlo)   # for y()

    def x(self, r):
        return self.ml + float(r) * (self.w - self.ml - self.mr)

    def y(self, v):
        t = (self.top - float(v)) / self.span
        return self.mt + t * (self.h - self.mt - self.mb)

    def axes(self, vlo_label, vhi_label):
        out = ['<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#444444"/>'
               % (_fmt(self.ml), _fmt(self.mt), _fmt(self.ml), _fmt(self.h - self.mb)),
               '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#444444"/>'
               % (_fmt(self.ml), _fmt(self.h - self.mb),
                  _fmt(self.w - self.mr), _fmt(self.h - self.mb))]
        for r, lab in ((0, "0"), (1, "1")):
            out.append('<text x="%s" y="%s" text-anchor="middle">r=%s</text>'
                       % (_fmt(self.x(r)), _fmt(self.h - self.mb + 16), lab))
        for v, lab in ((vlo_label, str(vlo_label)), (vhi_label, str(vhi_label))):
            out.append('<text x="%s" y="%s" text-anchor="end">%s</text>'
                       % (_fmt(self.ml - 4), _fmt(self.y(v) + 4), lab))
        return out


def family_svg(t, events=()):
    """Action profiles of every arc, vertex dots, event parameter marks."""
    lo, hi = t.f3_range()
    if lo is None:
        lo, hi = 0, 1
    fr = _Frame(_FAMILY_SIZE, lo, hi)
    body = fr.axes(lo, hi)
    for i, a in enumerate(t.arcs):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join("%s,%s" % (_fmt(fr.x(r)), _fmt(fr.y(v)))
                       for r, v in a.f3.points)
        body.append('<polyline points="%s" fill="none" stroke="%s" '
                    'stroke-width="2"/>' % (pts, color))
        r0, v0 = a.f3.points[0]
        body.append('<text x="%s" y="%s" fill="%s">%s</text>'
                    % (_fmt(fr.x(r0) + 3), _fmt(fr.y(v0) - 5), color, a.id))
    for v in t.vertices:
        body.append('<circle cx="%s" cy="%s" r="3.5" fill="#000000"/>'
                    % (_fmt(fr.x(v.r)), _fmt(fr.y(v.f3))))
        body.append('<text x="%s" y="%s">%s</text>'
                    % (_fmt(fr.x(v.r) + 5), _fmt(fr.y(v.f3) + 12), v.id))
    for ev in sorted(events, key=lambda e: e.r):
        mark = {Birth: "b", Death: "d"}.get(type(ev.payload), "s")
        body.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#999999" '
                    'stroke-dasharray="4 3"/>'
                    % (_fmt(fr.x(ev.r)), _fmt(fr.mt),
                       _fmt(fr.x(ev.r)), _fmt(fr.h - fr.mb)))
        body.append('<text x="%s" y="%s" text-anchor="middle" '
                    'fill="#666666">%s</text>'
                    % (_fmt(fr.x(ev.r)), _fmt(fr.mt - 8), mark))
    return _svg(fr, body)


def trace_svg(trace):
    """Staircase of the tracked value with transfer marks.

    Slabs where the class is zero (no top, value -inf) are drawn dashed
    along the canvas floor.
    """
    # a slab whose top carried over starts at the very value the last one
    # ended on, so each value object is compared once
    finite, last = [], None
    for seg in trace.segments:
        if seg.top is None:
            continue
        for v in (seg.rho_lo, seg.rho_hi):
            if v is not last:
                finite.append(v)
            last = v
    lo = min(finite) if finite else 0
    hi = max(finite) if finite else 1
    fr = _Frame(_TRACE_SIZE, lo, hi)
    body = fr.axes(lo, hi)
    floor = fr.h - fr.mb - 4
    # consecutive slabs share a bound, and a carried top its value: each
    # object is converted to a coordinate once
    r_hi = rho_hi = x2 = y2 = None
    for seg in trace.segments:
        x1 = x2 if seg.r_lo is r_hi else _fmt(fr.x(seg.r_lo))
        r_hi, x2 = seg.r_hi, _fmt(fr.x(seg.r_hi))
        if seg.top is None:
            body.append('<line x1="%s" y1="%s" x2="%s" y2="%s" '
                        'stroke="#aaaaaa" stroke-dasharray="2 3" '
                        'stroke-width="2"/>'
                        % (x1, _fmt(floor), x2, _fmt(floor)))
            continue
        y1 = y2 if seg.rho_lo is rho_hi else _fmt(fr.y(seg.rho_lo))
        rho_hi, y2 = seg.rho_hi, _fmt(fr.y(seg.rho_hi))
        body.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#1f77b4" '
                    'stroke-width="2"/>' % (x1, y1, x2, y2))
    segs = trace.segments
    for r, old_top, new_top in trace.transfers:
        # the slabs are contiguous, so r_lo increases: the first at r
        i = bisect.bisect_left(segs, r, key=lambda s: s.r_lo)
        if i == len(segs) or segs[i].r_lo != r:
            continue
        seg = segs[i]
        y = floor if seg.top is None else fr.y(seg.rho_lo)
        body.append('<circle cx="%s" cy="%s" r="4" fill="none" '
                    'stroke="#d62728" stroke-width="2"/>'
                    % (_fmt(fr.x(r)), _fmt(y)))
        body.append('<text x="%s" y="%s" fill="#d62728">%s&#8594;%s</text>'
                    % (_fmt(fr.x(r) + 6), _fmt(y - 6), old_top, new_top))
    body.append('<text x="%s" y="%s">%s</text>'
                % (_fmt(fr.ml), _fmt(fr.mt - 8), trace.outcome))
    return _svg(fr, body)
