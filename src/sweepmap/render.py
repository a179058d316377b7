"""Figure output: SVG and ASCII drawings of path diagrams.

Rendering is presentation-only and byte-stable: the same diagram always
produces the same bytes.  Up arrows are red, down arrows blue, level arrows
purple; heights are labeled on the left margin and row counts on the right.
"""

from __future__ import annotations

from .paths import PathDiagram, arrow_color, row_counts

_CELL_PX = 40


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def _extent(diagram: PathDiagram) -> tuple[int, int]:
    """Lowest and highest lattice height the drawing touches."""
    heights = [0]
    heights.extend(diagram.ranks)
    heights.extend(diagram.end_ranks)
    return min(heights), max(heights)


def _segment_extent(diagram: PathDiagram) -> tuple[int, int]:
    """Lowest and highest row an up or down segment covers, or ``(0, 0)``."""
    heights = [h for b, r in zip(diagram.steps, diagram.ranks) if b for h in (r, r + b)]
    return min(heights, default=0), max(heights, default=1) - 1


def render_ascii(diagram: PathDiagram) -> str:
    """One character per lattice cell: R for an up segment, B for a down
    segment, a dot otherwise; height label left, row count right."""
    n = len(diagram)
    if n == 0:
        return "(empty diagram)\n"
    rc = row_counts(diagram)
    low, high = _segment_extent(diagram)
    width = max(len(str(j)) for j in range(low, high + 1))
    lines = []
    for j in range(high, low - 1, -1):
        cells = []
        for b, r in zip(diagram.steps, diagram.ranks):
            if b > 0 and r <= j < r + b:
                cells.append("R")
            elif b < 0 and r + b <= j < r:
                cells.append("B")
            else:
                cells.append(".")
        lines.append(f"{j:>{width}} | {''.join(cells)} | {rc.count(j)}")
    return "\n".join(lines) + "\n"


def render_svg(diagram: PathDiagram) -> str:
    """An SVG drawing on the unit grid.

    Geometry is emitted in lattice coordinates inside a y-flipped group, so
    the coordinates in the file read exactly like heights.
    """
    n = len(diagram)
    y_lo, y_hi = _extent(diagram)
    x_lo, x_hi = 1, n + 1 if n else 2
    pad_x, pad_y = 1.8, 0.8
    box_x = x_lo - pad_x
    box_w = (x_hi - x_lo) + 2 * pad_x
    box_y = -(y_hi + pad_y)
    box_h = (y_hi - y_lo) + 2 * pad_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(box_w * _CELL_PX)}" height="{_fmt(box_h * _CELL_PX)}" '
        f'viewBox="{_fmt(box_x)} {_fmt(box_y)} {_fmt(box_w)} {_fmt(box_h)}">',
        "<defs>",
    ]
    for color in ("red", "blue", "purple"):
        parts.append(
            f'<marker id="tip-{color}" viewBox="0 0 4 4" refX="3.2" refY="2" '
            f'markerWidth="4" markerHeight="4" orient="auto">'
            f'<path d="M0,0 L4,2 L0,4 z" fill="{color}"/></marker>'
        )
    parts.append("</defs>")
    parts.append('<g transform="scale(1 -1)">')
    for x in range(x_lo, x_hi + 1):
        parts.append(
            f'<line x1="{x}" y1="{y_lo}" x2="{x}" y2="{y_hi}" '
            f'stroke="#cccccc" stroke-width="0.02"/>'
        )
    for y in range(y_lo, y_hi + 1):
        parts.append(
            f'<line x1="{x_lo}" y1="{y}" x2="{x_hi}" y2="{y}" '
            f'stroke="#cccccc" stroke-width="0.02"/>'
        )
    for i, (b, r) in enumerate(zip(diagram.steps, diagram.ranks)):
        color = arrow_color(b)
        parts.append(
            f'<line class="arrow" x1="{i + 1}" y1="{r}" x2="{i + 2}" y2="{r + b}" '
            f'stroke="{color}" stroke-width="0.08" marker-end="url(#tip-{color})"/>'
        )
    parts.append("</g>")

    labels = ['<g font-family="monospace" font-size="0.35" fill="#333333">']
    for y in range(y_lo, y_hi + 1):
        labels.append(
            f'<text x="{_fmt(x_lo - 1.4)}" y="{_fmt(-y + 0.12)}">{y}</text>'
        )
    if n:
        rc = row_counts(diagram)
        for j in range(y_lo, y_hi):
            labels.append(
                f'<text class="rowcount" x="{_fmt(x_hi + 0.4)}" '
                f'y="{_fmt(-(j + 0.5) + 0.12)}">{rc.count(j)}</text>'
            )
    labels.append("</g>")
    parts.extend(labels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
