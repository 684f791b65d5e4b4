"""Small static SVG charts for campaign results; no plotting dependency."""

from __future__ import annotations

from pathlib import Path

from .metrics import centred_moving_average

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 52
MARGIN_RIGHT = 16
MARGIN_TOP = 34
MARGIN_BOTTOM = 40


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _axis_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _write_chart(path: Path | str, title: str, y_label: str, body: list[str],
                 x_range, y_range) -> Path:
    """Write a per-game chart of the SVG elements `body` to `path`."""
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">game</text>',
        f'<text x="14" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {(y0 + y1) // 2})">{y_label}</text>',
    ]
    for tick in _axis_ticks(*x_range):
        px = _scale([tick], x_range[0], x_range[1], x0, x1)[0]
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tick:g}</text>'
        )
    for tick in _axis_ticks(*y_range):
        py = _scale([tick], y_range[0], y_range[1], y0, y1)[0]
        parts.append(
            f'<text x="{x0 - 6}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick:g}</text>'
        )
        parts.append(
            f'<line x1="{x0}" y1="{py:.1f}" x2="{x1}" y2="{py:.1f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
    parts.extend(body)
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts), encoding="ascii")
    return path


def _points(xs, ys, x_range, y_range):
    """The data points (xs[i], ys[i]) in SVG coordinates."""
    px = _scale(xs, x_range[0], x_range[1], MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    py = _scale(ys, y_range[0], y_range[1], HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    return zip(px, py)


def _polyline(xs, ys, x_range, y_range, color, width=1.0) -> str:
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in _points(xs, ys, x_range, y_range))
    return (
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"/>'
    )


def _dots(xs, ys, x_range, y_range, color) -> str:
    return "\n".join(
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}"/>'
        for x, y in _points(xs, ys, x_range, y_range)
    )


def series_with_average(
    title: str, y_label: str, values: list[float], path: Path | str,
    window: int = 11,
) -> Path:
    """Per-game series (thin) with its centred moving average (bold)."""
    xs = list(range(1, len(values) + 1))
    y_lo = min(0.0, min(values, default=0.0))
    y_hi = max(values, default=1.0) or 1.0
    x_range = (1, max(2, len(values)))
    y_range = (y_lo, y_hi)
    body = [_polyline(xs, values, x_range, y_range, "#9ecae1")]
    avg = centred_moving_average(values, window=window)
    if avg:
        half = window // 2
        body.append(_polyline(
            list(range(1 + half, 1 + half + len(avg))), avg,
            x_range, y_range, "#08519c", width=2.0,
        ))
    return _write_chart(path, title, y_label, body, x_range, y_range)


def scatter(
    title: str, y_label: str, values: list[float], path: Path | str
) -> Path:
    xs = list(range(1, len(values) + 1))
    y_hi = max(values, default=1.0) or 1.0
    x_range = (1, max(2, len(values)))
    y_range = (0.0, y_hi)
    body = [_dots(xs, values, x_range, y_range, "#a63603")]
    return _write_chart(path, title, y_label, body, x_range, y_range)


def render_campaign_plots(games, out_dir: Path | str) -> list[Path]:
    """The three standard per-campaign charts from game records."""
    out = Path(out_dir)
    return [
        series_with_average(
            "Kills per game", "kills", [g.kills for g in games],
            out / "kills.svg",
        ),
        series_with_average(
            "Deaths per game", "deaths", [g.deaths for g in games],
            out / "deaths.svg",
        ),
        scatter(
            "Longest kill streak per game", "streak",
            [g.max_kill_streak for g in games], out / "streaks.svg",
        ),
    ]
