"""Deterministic SVG figures for d = 2 or 3.

Three-variable models are drawn in the affine chart where the first form
equals one; the first hyperplane itself lives at infinity there and is
rendered as the boundary circle of the view. Two-variable models are drawn
as points on a horizontal chart axis. Overlays: critical points, tracked
degeneration arcs with their limit markers, region labels, and (for three
states) the probability triangle with a log-normal fiber segment. A point
whose chart coordinates are not finite is drawn like a point at infinity:
not at all.

Output is plain SVG text assembled in a fixed order, so identical inputs
give byte-identical documents. numpy is imported by the drawing functions,
so importing this module (as the CLI does) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionUnsupported
from .model import SquaredLinearModel

VIEW = 5.0  # chart coordinates clipped to [-VIEW, VIEW]^2
SIZE = 480.0

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


@dataclass
class Overlays:
    critical_points: list = field(default_factory=list)  # parameter vectors
    arcs: list = field(default_factory=list)  # lists of parameter vectors
    limit_points: list = field(default_factory=list)  # parameter vectors
    region_labels: list = field(default_factory=list)  # (witness, text)
    lognormal: object = None  # Polytope with ambient_dim == 3


def _fmt(value: float) -> str:
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _to_pixels(a: float, b: float):
    x = (a + VIEW) / (2 * VIEW) * SIZE
    y = (VIEW - b) / (2 * VIEW) * SIZE
    return x, y


class _Chart3:
    """Coordinates on the plane {first form = 1} of a d = 3 model."""

    def __init__(self, A):
        import numpy as np

        a1 = self.a1 = A[0]
        self.origin = a1 / (a1 @ a1)
        basis = [v for v in np.linalg.svd(a1.reshape(1, 3))[2][1:]]
        self.frame = np.array(basis)

    def chart_point(self, x):
        """Chart coordinates of x, or None for a point at infinity."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        l1 = float(self.a1 @ x)
        if l1 == 0.0:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            point = tuple((x / l1 - self.origin) @ self.frame.T)
        return point if np.all(np.isfinite(point)) else None

    def line_segment(self, normal):
        """Clip {normal . x = 0} against the view box, in chart coordinates."""
        import numpy as np

        n_chart = np.asarray(normal, dtype=float) @ self.frame.T
        c0 = float(np.asarray(normal, dtype=float) @ self.origin)
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


def plot_arrangement(model: SquaredLinearModel, overlays: Overlays | None = None) -> str:
    if model.d not in (2, 3):
        raise DimensionUnsupported(f"plotting supports d in (2, 3), got d = {model.d}")
    overlays = overlays or Overlays()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>',
    ]
    A = model.A_float
    if model.d == 3:
        _draw_chart3(model, A, overlays, parts)
    else:
        _draw_chart2(model, A, overlays, parts)
    if overlays.lognormal is not None:
        _draw_simplex_fiber(overlays.lognormal, parts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _draw_chart3(model, A, overlays, parts):
    chart = _Chart3(A)
    # First form = line at infinity of the chart: drawn as the boundary circle.
    parts.append(
        f'<circle class="hyperplane" data-label="{model.arr.label(0)}" '
        f'cx="{_fmt(SIZE / 2)}" cy="{_fmt(SIZE / 2)}" r="{_fmt(SIZE / 2 - 1)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for i in range(1, model.n):
        seg = chart.line_segment(A[i])
        if seg is None:
            continue
        (a0, b0), (a1, b1) = seg
        x0, y0 = _to_pixels(a0, b0)
        x1, y1 = _to_pixels(a1, b1)
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<line class="hyperplane" data-label="{model.arr.label(i)}" '
            f'x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{color}" stroke-width="1.2"/>'
        )
    for arc in overlays.arcs:
        pieces = []
        for x in arc:
            pt = chart.chart_point(x)
            if pt is None:
                continue
            px, py = _to_pixels(*pt)
            pieces.append(f"{_fmt(px)},{_fmt(py)}")
        if len(pieces) >= 2:
            parts.append(
                f'<polyline class="arc" points="{" ".join(pieces)}" fill="none" '
                'stroke="#0055cc" stroke-width="1.5"/>'
            )
    for x in overlays.critical_points:
        pt = chart.chart_point(x)
        if pt is None:
            continue
        px, py = _to_pixels(*pt)
        parts.append(
            f'<circle class="critical-point" cx="{_fmt(px)}" cy="{_fmt(py)}" '
            'r="3.5" fill="#d62728"/>'
        )
    for x in overlays.limit_points:
        pt = chart.chart_point(x)
        if pt is None:
            continue
        px, py = _to_pixels(*pt)
        parts.append(
            f'<rect class="limit-point" x="{_fmt(px - 3)}" y="{_fmt(py - 3)}" '
            'width="6" height="6" fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
        )
    for witness, text in overlays.region_labels:
        pt = chart.chart_point([float(v) for v in witness])
        if pt is None:
            continue
        px, py = _to_pixels(*pt)
        parts.append(
            f'<text class="region-label" x="{_fmt(px)}" y="{_fmt(py)}" '
            f'font-size="10" text-anchor="middle">{text}</text>'
        )


def _draw_chart2(model, A, overlays, parts):
    """d = 2: the chart {first form = 1} is a line; hyperplanes are points."""
    import numpy as np

    axis_y = SIZE / 2
    parts.append(
        f'<line class="chart-axis" x1="8" y1="{_fmt(axis_y)}" x2="{_fmt(SIZE - 8)}" '
        f'y2="{_fmt(axis_y)}" stroke="#333333" stroke-width="1"/>'
    )
    a1 = A[0]
    origin = a1 / (a1 @ a1)
    direction = np.array([-a1[1], a1[0]])
    direction = direction / np.linalg.norm(direction)

    def chart_coord(x):
        x = np.asarray(x, dtype=float)
        l1 = float(a1 @ x)
        if l1 == 0.0:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            a = float((x / l1 - origin) @ direction)
        return a if np.isfinite(a) else None

    def to_px(a):
        a = max(-VIEW, min(VIEW, a))
        return (a + VIEW) / (2 * VIEW) * (SIZE - 16) + 8

    for i in range(model.n):
        if i == 0:
            continue
        root = chart_coord(np.array([-A[i][1], A[i][0]]))
        if root is None:
            continue
        px = to_px(root)
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<circle class="hyperplane" data-label="{model.arr.label(i)}" '
            f'cx="{_fmt(px)}" cy="{_fmt(axis_y)}" r="4" fill="{color}"/>'
        )
    # The first form sits at infinity: mark both ends of the axis.
    parts.append(
        f'<path class="hyperplane" data-label="{model.arr.label(0)}" '
        f'd="M 4 {_fmt(axis_y - 6)} L 4 {_fmt(axis_y + 6)} '
        f'M {_fmt(SIZE - 4)} {_fmt(axis_y - 6)} L {_fmt(SIZE - 4)} {_fmt(axis_y + 6)}" '
        'stroke="#333333" stroke-width="1" fill="none"/>'
    )
    for x in overlays.critical_points:
        a = chart_coord(x)
        if a is None:
            continue
        parts.append(
            f'<circle class="critical-point" cx="{_fmt(to_px(a))}" '
            f'cy="{_fmt(axis_y - 12)}" r="3" fill="#d62728"/>'
        )
    for arc in overlays.arcs:
        coords = [chart_coord(x) for x in arc]
        coords = [c for c in coords if c is not None]
        if len(coords) >= 2:
            pieces = " ".join(
                f"{_fmt(to_px(c))},{_fmt(axis_y - 24 - 2 * k)}" for k, c in enumerate(coords)
            )
            parts.append(
                f'<polyline class="arc" points="{pieces}" fill="none" '
                'stroke="#0055cc" stroke-width="1.2"/>'
            )
    for x in overlays.limit_points:
        a = chart_coord(x)
        if a is None:
            continue
        parts.append(
            f'<rect class="limit-point" x="{_fmt(to_px(a) - 3)}" y="{_fmt(axis_y - 3)}" '
            'width="6" height="6" fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
        )
    for witness, text in overlays.region_labels:
        a = chart_coord([float(v) for v in witness])
        if a is None:
            continue
        parts.append(
            f'<text class="region-label" x="{_fmt(to_px(a))}" y="{_fmt(axis_y + 20)}" '
            f'font-size="10" text-anchor="middle">{text}</text>'
        )


def _draw_simplex_fiber(polytope, parts):
    """Probability triangle with the log-normal fiber, for 3-state models."""
    if polytope.ambient_dim != 3:
        return
    corners = [(SIZE * 0.15, SIZE * 0.9), (SIZE * 0.85, SIZE * 0.9), (SIZE * 0.5, SIZE * 0.1)]

    def embed(s):
        s = [float(v) for v in s]
        x = sum(si * cx for si, (cx, _) in zip(s, corners))
        y = sum(si * cy for si, (_, cy) in zip(s, corners))
        return x, y

    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
    parts.append(
        f'<polygon class="simplex" points="{path}" fill="none" '
        'stroke="#555555" stroke-width="1"/>'
    )
    if polytope.V_rep:
        pieces = [embed(v) for v in polytope.V_rep]
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pieces)
        parts.append(
            f'<polyline class="lognormal-fiber" points="{coords}" fill="none" '
            'stroke="#2ca02c" stroke-width="1.5"/>'
        )
