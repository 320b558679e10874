"""Self-contained SVG line plots with byte-deterministic output.

No fonts, timestamps, or external assets are embedded; the same table and
selection always produce the same bytes, which is what lets runs be compared
with a plain file diff.
"""

import math
import sys

from .tables import ResultTable, write_atomic

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 16.0, 28.0, 44.0
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _widen(lo: float, hi: float) -> float:
    """hi, or lo + max(1, 1e-6 |lo|) for a range too narrow to tick.

    That is an empty range, or one whose tick step (hi - lo) / 6 underflows
    below the smallest normal float, where _nice_ticks could find no step
    (5e-324 / 6 is 0).  From 2**53 on, lo + 1 == lo, hence the 1e-6 |lo|.
    """
    return hi if (hi - lo) / 6 >= sys.float_info.min else lo + max(1.0, 1e-6 * abs(lo))


def _nice_ticks(lo: float, hi: float, target: int = 6):
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks, v = [], math.ceil(lo / step) * step
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:           # the step vanishes in the ulp of v
            break
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def emit_plot(table: ResultTable, x: str, ys: list, path, title: str, labels: list) -> bytes:
    """Render selected columns as polylines and write the SVG atomically.

    Raises ValueError unless `labels` has one label for each column of
    `ys`, and one naming the first column with a NaN or infinite value:
    it has no place on the axes.  An x range, or a y range with its 5 % pad,
    that overflows a float (as [-1e308, 1e308]) raises one naming the
    columns on that axis.
    """
    if len(labels) != len(ys):
        raise ValueError(f"got {len(labels)} labels for {len(ys)} plotted columns")
    xs, *series = ([float(v) for v in table.column(c)] for c in [x, *ys])
    for name, vals in zip([x, *ys], [xs, *series]):
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"cannot plot column {name!r}: it holds a NaN or infinite value")
    if not xs:
        raise ValueError("cannot plot an empty table")

    xlo, ylo = min(xs), min(map(min, series))
    xhi, yhi = _widen(xlo, max(xs)), _widen(ylo, max(map(max, series)))
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    for names, lo, hi in (([x], xlo, xhi), (ys, ylo, yhi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"cannot plot columns {names!r}: their range overflows a float")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v - xlo) / (xhi - xlo) * plot_w

    def py(v):
        return MARGIN_T + (yhi - v) / (yhi - ylo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_L:g}" y="{MARGIN_T:g}" width="{plot_w:g}" '
        f'height="{plot_h:g}" fill="none" stroke="#000000"/>',
        f'<text x="{WIDTH / 2:g}" y="18" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{title}</text>',
    ]

    for v in _nice_ticks(xlo, xhi):
        X = px(v)
        parts.append(f'<line x1="{X:.2f}" y1="{MARGIN_T + plot_h:.2f}" '
                     f'x2="{X:.2f}" y2="{MARGIN_T + plot_h + 5:.2f}" stroke="#000000"/>')
        parts.append(f'<text x="{X:.2f}" y="{MARGIN_T + plot_h + 18:.2f}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{_fmt(v)}</text>')
    for v in _nice_ticks(ylo, yhi):
        Y = py(v)
        parts.append(f'<line x1="{MARGIN_L - 5:.2f}" y1="{Y:.2f}" '
                     f'x2="{MARGIN_L:.2f}" y2="{Y:.2f}" stroke="#000000"/>')
        parts.append(f'<text x="{MARGIN_L - 8:.2f}" y="{Y + 4:.2f}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{_fmt(v)}</text>')

    xlab = table.header()[table.columns.index(x)]
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 8:.2f}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle">{xlab}</text>')

    for i, (vals, label) in enumerate(zip(series, labels)):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, vals))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        ly = MARGIN_T + 14 + 16 * i
        parts.append(f'<line x1="{MARGIN_L + plot_w - 130:.2f}" y1="{ly:.2f}" '
                     f'x2="{MARGIN_L + plot_w - 106:.2f}" y2="{ly:.2f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{MARGIN_L + plot_w - 100:.2f}" y="{ly + 4:.2f}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')

    parts.append("</svg>")
    data = "\n".join(parts).encode("ascii")
    write_atomic(path, data)
    return data
