"""Static SVG emitters: body outlines, nested level curves, certificates."""

from __future__ import annotations

import numpy as np

from .geometry import Body2, as_point, halfplane_chain
from .extension import ExtensionResult

_SVG_SIZE = 720
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#17becf"]


class _Canvas:
    def __init__(self, window):
        self.xmin, self.xmax, self.ymin, self.ymax = window
        self.parts = []

    def _map(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        sx = _SVG_SIZE / (self.xmax - self.xmin)
        sy = _SVG_SIZE / (self.ymax - self.ymin)
        x = (pts[:, 0] - self.xmin) * sx
        y = _SVG_SIZE - (pts[:, 1] - self.ymin) * sy
        return np.column_stack([x, y])

    def polyline(self, pts, color, width=1.5, closed=False, dashed=False):
        m = self._map(pts)
        if len(m) < 2:
            return
        d = "M " + " L ".join(f"{p[0]:.2f} {p[1]:.2f}" for p in m)
        if closed:
            d += " Z"
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.parts.append(
            f'<path d="{d}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash}/>')

    def dot(self, p, color, r=3.0):
        m = self._map(p)[0]
        self.parts.append(
            f'<circle cx="{m[0]:.2f}" cy="{m[1]:.2f}" r="{r}" fill="{color}"/>')

    def render(self) -> str:
        header = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                  f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
                  f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">'
                  f'<rect width="100%" height="100%" fill="white"/>')
        return header + "".join(self.parts) + "</svg>"


def _clip_window(pts, window, pad=0.0):
    xmin, xmax, ymin, ymax = window
    keep = ((pts[:, 0] >= xmin - pad) & (pts[:, 0] <= xmax + pad)
            & (pts[:, 1] >= ymin - pad) & (pts[:, 1] <= ymax + pad))
    return pts[keep]


def _body_outline(canvas, body: Body2, window):
    pts = body.boundary_samples(512)
    pts = _clip_window(pts, window, pad=0.05 * (window[1] - window[0]))
    # split into contiguous strokes so window clipping does not join ends
    if len(pts) < 2:
        return
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cut = np.nonzero(gaps > 10 * np.median(gaps) + 1e-12)[0]
    start = 0
    for c in list(cut) + [len(pts) - 1]:
        if c + 1 - start >= 2:
            canvas.polyline(pts[start:c + 1], "#000000", 2.0)
        start = c + 1


def svg_body(body: Body2, window) -> str:
    canvas = _Canvas(window)
    _body_outline(canvas, body, window)
    canvas.dot(body.witness, "#d62728")
    return canvas.render()


def svg_extension(res: ExtensionResult, window) -> str:
    """Nested convex level curves of the extended function."""
    canvas = _Canvas(window)
    center = as_point([(window[0] + window[1]) / 2, (window[2] + window[3]) / 2])
    half = max(window[1] - window[0], window[3] - window[2])
    for k in range(len(res.family)):
        e = res.operator.extended(k)
        if e.special is not None:
            continue
        # the chain about the source's witness, in a box holding the
        # window's box of half-size half
        w = e.source.witness
        poly, _ = halfplane_chain(e.rows[:, :2], e.rows[:, 2], w,
                                  half + float(np.abs(w - center).max()))
        canvas.polyline(poly, _COLORS[k % len(_COLORS)], 1.2, closed=True)
    _body_outline(canvas, res.family.ambient, window)
    return canvas.render()


def svg_certificate(cert) -> str:
    """Construction figures for the counterexample certificates, by kind;
    ValueError for a kind without one (usc)."""
    if cert.kind == "no_uc":
        pts = np.asarray(cert.points)
        lo, hi = pts.min(0), pts.max(0)
        pad = 0.2 * float(np.max(hi - lo) + 1)
        window = (lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad)
        canvas = _Canvas(window)
        for j, hp in enumerate(cert.halfplanes[:8]):
            d = np.array([-hp.normal[1], hp.normal[0]])
            anchor = hp.normal * hp.offset
            line = anchor + np.outer(np.linspace(-100, 100, 2), d)
            canvas.polyline(line, _COLORS[j % len(_COLORS)], 0.8, dashed=True)
        canvas.polyline(pts, "#000000", 2.0)
        for i, p in enumerate(pts[:24]):
            canvas.dot(p, "#d62728", 2.5)
        return canvas.render()
    if cert.kind == "no_lip":
        window = (-0.1, max(2.5 * cert.eps, 0.5), -0.1, 1.1)
        canvas = _Canvas(window)
        prof = np.asarray(cert.profile_samples)
        canvas.polyline(prof, "#000000", 2.0)
        for k, cuts in enumerate(cert.body_cuts[:8]):
            slope, inter = cert.lines[k]
            xs = np.linspace(0.0, window[1], 2)
            canvas.polyline(np.column_stack([xs, inter + slope * xs]),
                            _COLORS[k % len(_COLORS)], 0.8, dashed=True)
            canvas.dot(cert.p_points[k], "#d62728", 2.5)
            canvas.dot(cert.q_points[k], "#1f77b4", 2.5)
        return canvas.render()
    if cert.kind in ("no_qc", "non_rotund"):
        wit = np.asarray(cert.witnesses)
        c = wit[0]
        window = (c[0] - 8, c[0] + 8, c[1] - 8, c[1] + 8)
        canvas = _Canvas(window)
        for j, hp in enumerate(cert.forcing_halfplanes[:8]):
            d = np.array([-hp.normal[1], hp.normal[0]])
            anchor = hp.normal * hp.offset
            line = anchor + np.outer(np.linspace(-1000, 1000, 2), d)
            canvas.polyline(line, _COLORS[j % len(_COLORS)], 0.8, dashed=True)
        for p in wit:
            canvas.dot(p, "#d62728", 3.0)
        return canvas.render()
    raise ValueError(f"no figure for certificate kind {cert.kind}")
