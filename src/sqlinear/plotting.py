"""Deterministic SVG figures for d = 2 or 3.

A figure is drawn from the arrangement alone (d, n, the labels and A,
converted to floats once), so it takes every arrangement `regions` takes.
Both are drawn in the affine chart {first form = 1}, computed by one chart
class; the first hyperplane lies at infinity there. For d = 3 the chart is a
plane: hyperplanes are lines, the first one the boundary circle of the view.
For d = 2 it is a horizontal axis: hyperplanes are points, the first one a
mark at both ends. One drawer puts the overlays on either chart in one marker
style: tracked degeneration arcs, critical points, limit markers and region
labels. A point whose chart coordinates are not finite is drawn like a point
at infinity: not at all. Three-state models also get the probability
triangle with a log-normal fiber segment.

Output is plain SVG text assembled in a fixed order, so identical inputs
give byte-identical documents. numpy is imported by the drawing functions,
so importing this module does not load it.
"""

from __future__ import annotations

from .arrangement import Arrangement
from .errors import DimensionUnsupported

VIEW = 5.0  # chart coordinates clipped to [-VIEW, VIEW]^2
SIZE = 480.0

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(value: float) -> str:
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _escape(text: str) -> str:
    """``text`` with the characters XML reserves in a quoted attribute value escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _to_pixels(a: float, b: float):
    x = (a + VIEW) / (2 * VIEW) * SIZE
    y = (VIEW - b) / (2 * VIEW) * SIZE
    return x, y


class _Chart:
    """Coordinates on the chart {first form = 1}: d - 1 numbers per parameter vector.

    The d = 3 frame is the SVD complement of the first form. The d = 2 frame
    is (-a1[1], a1[0]) / |a1|: the SVD's sign varies with the input and would
    mirror some figures.
    """

    def __init__(self, A):
        import numpy as np

        a1 = self.a1 = A[0]
        self.origin = a1 / (a1 @ a1)
        if len(a1) == 3:
            self.frame = np.linalg.svd(a1.reshape(1, 3))[2][1:]
        else:
            direction = np.array([-a1[1], a1[0]])
            self.frame = (direction / np.linalg.norm(direction)).reshape(1, 2)

    def point(self, x):
        """Chart coordinates of x, or None at infinity or beyond double range."""
        import numpy as np

        from .mle import to_floats

        x = to_floats(x, "x")
        l1 = float(self.a1 @ x)
        if l1 == 0.0:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            point = tuple((x / l1 - self.origin) @ self.frame.T)
        return point if np.all(np.isfinite(point)) else None

    def line_segment(self, normal):
        """Clip {normal . x = 0} (a float row of A) to the view box, in d = 3 chart coordinates."""
        n_chart, c0 = normal @ self.frame.T, float(normal @ self.origin)
        # Line: c0 + n_chart . (a, b) = 0.
        points = []
        na, nb = float(n_chart[0]), float(n_chart[1])
        for fixed in (-VIEW, VIEW):
            if abs(nb) > 1e-12:
                b = -(c0 + na * fixed) / nb
                if -VIEW - 1e-9 <= b <= VIEW + 1e-9:
                    points.append((fixed, b))
            if abs(na) > 1e-12:
                a = -(c0 + nb * fixed) / na
                if -VIEW - 1e-9 <= a <= VIEW + 1e-9:
                    points.append((a, fixed))
        unique = []
        for p in points:
            if not any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < 1e-9 for q in unique):
                unique.append(p)
        if len(unique) < 2:
            return None
        return unique[0], unique[1]


def _check_dimension(d: int):
    """Reject a dimension no figure is drawn in; the CLI checks it before
    computing a figure's overlays."""
    if d not in (2, 3):
        raise DimensionUnsupported(f"plotting supports d in (2, 3), got d = {d}")


def plot_arrangement(
    arr: Arrangement, critical_points=(), arcs=(), limit_points=(), region_labels=(), lognormal=None
) -> str:
    """The figure of ``arr`` with its overlays: critical points and limit
    points (parameter vectors), arcs (lists of them), region labels
    ((witness or Region, text) pairs) and a log-normal Polytope with
    ambient_dim == 3."""
    from .mle import to_floats

    _check_dimension(arr.d)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>',
    ]
    A = to_floats(arr.A, "A")
    chart = _Chart(A)
    draw_hyperplanes = _draw_chart3 if arr.d == 3 else _draw_chart2
    to_px = draw_hyperplanes(arr, A, chart, parts)
    _draw_overlays(chart, critical_points, arcs, limit_points, region_labels, to_px, parts)
    if lognormal is not None:
        _draw_simplex_fiber(lognormal, parts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _draw_chart3(arr, A, chart, parts):
    """d = 3: hyperplanes are lines of the chart. Returns the pixel map."""
    # First form = line at infinity of the chart: drawn as the boundary circle.
    parts.append(
        f'<circle class="hyperplane" data-label="{_escape(arr.label(0))}" '
        f'cx="{_fmt(SIZE / 2)}" cy="{_fmt(SIZE / 2)}" r="{_fmt(SIZE / 2 - 1)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for i in range(1, arr.n):
        if (seg := chart.line_segment(A[i])) is None:
            continue
        (x0, y0), (x1, y1) = (_to_pixels(*p) for p in seg)
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<line class="hyperplane" data-label="{_escape(arr.label(i))}" '
            f'x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{color}" stroke-width="1.2"/>'
        )
    return lambda point, row: _to_pixels(*point)


def _draw_chart2(arr, A, chart, parts):
    """d = 2: hyperplanes are points of the axis. Returns the pixel map,
    which clamps to the view and puts each overlay kind in its own row."""
    axis_y = SIZE / 2

    def to_px(point, row):
        a = max(-VIEW, min(VIEW, point[0]))
        return (a + VIEW) / (2 * VIEW) * (SIZE - 16) + 8, axis_y + row

    parts.append(
        f'<line class="chart-axis" x1="8" y1="{_fmt(axis_y)}" x2="{_fmt(SIZE - 8)}" '
        f'y2="{_fmt(axis_y)}" stroke="#333333" stroke-width="1"/>'
    )
    for i in range(1, arr.n):
        if (root := chart.point((-A[i][1], A[i][0]))) is None:
            continue
        px, _ = to_px(root, 0)
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<circle class="hyperplane" data-label="{_escape(arr.label(i))}" '
            f'cx="{_fmt(px)}" cy="{_fmt(axis_y)}" r="4" fill="{color}"/>'
        )
    # The first form sits at infinity: mark both ends of the axis.
    parts.append(
        f'<path class="hyperplane" data-label="{_escape(arr.label(0))}" '
        f'd="M 4 {_fmt(axis_y - 6)} L 4 {_fmt(axis_y + 6)} '
        f'M {_fmt(SIZE - 4)} {_fmt(axis_y - 6)} L {_fmt(SIZE - 4)} {_fmt(axis_y + 6)}" '
        'stroke="#333333" stroke-width="1" fill="none"/>'
    )
    return to_px


def _draw_overlays(chart, critical_points, arcs, limit_points, region_labels, to_px, parts):
    """Arcs, critical points, limit markers and region labels, in that order.

    ``to_px(point, row)`` maps chart coordinates to pixels; ``row`` is the
    kind's offset from the d = 2 axis, which the d = 3 map ignores.
    """
    for arc in arcs:
        points = [p for p in map(chart.point, arc) if p is not None]
        if len(points) >= 2:
            pixels = (to_px(p, -24 - 2 * k) for k, p in enumerate(points))
            pieces = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pixels)
            parts.append(
                f'<polyline class="arc" points="{pieces}" fill="none" '
                'stroke="#0055cc" stroke-width="1.5"/>'
            )
    for x in critical_points:
        if (point := chart.point(x)) is not None:
            px, py = to_px(point, -12)
            parts.append(
                f'<circle class="critical-point" cx="{_fmt(px)}" cy="{_fmt(py)}" '
                'r="3.5" fill="#d62728"/>'
            )
    for x in limit_points:
        if (point := chart.point(x)) is not None:
            px, py = to_px(point, 0)
            parts.append(
                f'<rect class="limit-point" x="{_fmt(px - 3)}" y="{_fmt(py - 3)}" '
                'width="6" height="6" fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
            )
    for witness, text in region_labels:
        if (point := chart.point(witness)) is not None:
            px, py = to_px(point, 20)
            parts.append(
                f'<text class="region-label" x="{_fmt(px)}" y="{_fmt(py)}" '
                f'font-size="10" text-anchor="middle">{text}</text>'
            )


def _draw_simplex_fiber(polytope, parts):
    """Probability triangle with the log-normal fiber, for 3-state models."""
    from .mle import to_floats

    if polytope.ambient_dim != 3:
        return
    corners = [(SIZE * 0.15, SIZE * 0.9), (SIZE * 0.85, SIZE * 0.9), (SIZE * 0.5, SIZE * 0.1)]

    def embed(s):
        x = sum(si * cx for si, (cx, _) in zip(s, corners))
        y = sum(si * cy for si, (_, cy) in zip(s, corners))
        return x, y

    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
    parts.append(
        f'<polygon class="simplex" points="{path}" fill="none" '
        'stroke="#555555" stroke-width="1"/>'
    )
    if polytope.V_rep:
        pieces = [embed(v) for v in to_floats(polytope.V_rep, "V_rep").tolist()]
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pieces)
        parts.append(
            f'<polyline class="lognormal-fiber" points="{coords}" fill="none" '
            'stroke="#2ca02c" stroke-width="1.5"/>'
        )
