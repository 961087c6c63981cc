"""Terminal plotting: render the paper's figures and a run's trace as text.

No plotting dependency is available offline, so the CLI and examples
render line charts (the Figure 5/7/8 curves) and stacked bars (the
Figure 9/10 phase breakdowns) as text, and a traced run's
:class:`~repro.obs.report.TraceReport` as a phase flame, a comm heat
matrix and a rank timeline (re-exported by :mod:`repro.obs`; the
Perfetto JSON of :mod:`repro.obs.export` is the high-fidelity view).
Pure functions returning strings — easy to test, easy to pipe.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .obs.report import TraceReport

#: Symbols assigned to series in declaration order.
_MARKS = "*o+x#@%&"

#: intensity ramp for the heat matrix (low -> high)
_RAMP = " .:-=+*#%@"


def _scale(vals: Sequence[float], lo: float, hi: float, steps: int,
           log: bool) -> list[int]:
    """Map values onto 0..steps-1 cells, optionally logarithmically."""
    if log:
        vals = [math.log10(max(v, 1e-300)) for v in vals]
        lo = math.log10(max(lo, 1e-300))
        hi = math.log10(max(hi, 1e-300))
    span = (hi - lo) or 1.0
    return [
        min(steps - 1, max(0, int(round((v - lo) / span * (steps - 1)))))
        for v in vals
    ]


def line_chart(series: Mapping[str, Sequence[tuple[float, float]]], *,
               width: int = 64, height: int = 16, logx: bool = False,
               logy: bool = False, title: str = "",
               ylabel: str = "", xlabel: str = "") -> str:
    """Render one or more ``(x, y)`` series as an ASCII line chart.

    Each series gets a marker from ``* o + x ...``; the legend maps
    markers back to names.  Infinite/NaN points are dropped (how OOM
    entries vanish from a time curve).
    """
    pts = {
        name: [(x, y) for x, y in xy if math.isfinite(x) and math.isfinite(y)]
        for name, xy in series.items()
    }
    allx = [x for xy in pts.values() for x, _ in xy]
    ally = [y for xy in pts.values() for _, y in xy]
    if not allx:
        return f"{title}\n(no finite data)"
    xlo, xhi = min(allx), max(allx)
    ylo, yhi = min(ally), max(ally)
    grid = [[" "] * width for _ in range(height)]
    for (name, xy), mark in zip(pts.items(), _MARKS):
        if not xy:
            continue
        cols = _scale([x for x, _ in xy], xlo, xhi, width, logx)
        rows = _scale([y for _, y in xy], ylo, yhi, height, logy)
        for c, r in zip(cols, rows):
            grid[height - 1 - r][c] = mark
    lines = []
    if title:
        lines.append(title)
    ytop, ybot = f"{yhi:.4g}", f"{ylo:.4g}"
    pad = max(len(ytop), len(ybot), len(ylabel))
    for i, row in enumerate(grid):
        label = (ytop if i == 0 else ybot if i == height - 1
                 else ylabel if i == height // 2 else "")
        lines.append(f"{label:>{pad}} |{''.join(row)}|")
    lines.append(f"{'':>{pad}} +{'-' * width}+")
    xaxis = f"{xlo:.4g}{' ' * max(1, width - len(f'{xlo:.4g}') - len(f'{xhi:.4g}'))}{xhi:.4g}"
    lines.append(f"{'':>{pad}}  {xaxis}")
    if xlabel:
        lines.append(f"{'':>{pad}}  {xlabel:^{width}}")
    legend = "   ".join(f"{mark}={name}"
                        for (name, _), mark in zip(pts.items(), _MARKS))
    lines.append(f"{'':>{pad}}  {legend}")
    return "\n".join(lines)


def _letters(names) -> dict[str, str]:
    """One letter a name, in order: its first alphanumeric not yet taken."""
    letters: dict[str, str] = {}
    for name in names:
        letters[name] = next((ch for ch in name if ch.isalnum() and
                              ch.upper() not in letters.values()), "?").upper()
    return letters


def stacked_bars(bars: Mapping[str, Mapping[str, float]], *,
                 width: int = 56, title: str = "") -> str:
    """Render stacked horizontal bars (the Figure 9/10 breakdowns).

    ``bars`` maps bar label -> {segment label -> value}; segments are
    drawn with one letter each (first letter of the segment name,
    disambiguated by the legend).
    """
    if not bars:
        return f"{title}\n(no data)"
    segments = list(dict.fromkeys(s for segs in bars.values() for s in segs))
    letters = _letters(segments)
    total_max = max(sum(v.values()) for v in bars.values()) or 1.0
    lines = [title] if title else []
    label_w = max(len(k) for k in bars)
    for label, segs in bars.items():
        total = sum(segs.values())
        cells = []
        for s in segments:
            v = segs.get(s, 0.0)
            cells.append(letters[s] * int(round(v / total_max * width)))
        bar = "".join(cells)[:width]
        lines.append(f"{label:>{label_w}} |{bar:<{width}}| {total:.4g}")
    legend = "  ".join(f"{letters[s]}={s}" for s in segments)
    lines.append(f"{'':>{label_w}}  {legend}")
    return "\n".join(lines)


def gantt(traces: Sequence[Sequence[tuple[float, float, str]]], *,
          width: int = 64, max_ranks: int = 12, title: str = "") -> str:
    """Render per-rank phase timelines (the engine's virtual-time trace).

    Each rank becomes a row; phases are painted with one letter each
    over a time-scaled axis.  Shows where ranks idle at barriers — the
    load-imbalance signature made visible.
    """
    traces = [t for t in traces if t][:max_ranks]
    if not traces:
        return f"{title}\n(no trace)"
    t_end = max(end for t in traces for _, end, _ in t) or 1.0
    letters = _letters(dict.fromkeys(name for t in traces for _, _, name in t))
    lines = [title] if title else []
    for r, t in enumerate(traces):
        row = [" "] * width
        for start, end, name in t:
            c0 = int(start / t_end * (width - 1))
            c1 = max(c0 + 1, int(round(end / t_end * (width - 1))) + 1)
            for c in range(c0, min(c1, width)):
                row[c] = letters[name]
        lines.append(f"rank {r:>3d} |{''.join(row)}|")
    lines.append(f"{'':>8s}  0{'':>{max(1, width - len(f'{t_end:.3g}') - 1)}}{t_end:.3g}s")
    lines.append(f"{'':>8s}  " + "  ".join(f"{v}={k}" for k, v in letters.items()))
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line trend: eight-level block characters."""
    blocks = "▁▂▃▄▅▆▇█"
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    return "".join(blocks[min(7, int((v - lo) / span * 7.999))]
                   if math.isfinite(v) else "!" for v in values)


def phase_flame(report: "TraceReport", *, width: int = 48) -> str:
    """Flame-style phase summary: one bar per phase, sized by critical
    time, annotated with the skew between the slowest and mean rank —
    pipeline phases do not nest, so a phase whose max is far above its
    mean is where load imbalance (or a straggler) lives."""
    stats = report.phase_stats()
    if not stats:
        return "(no phase spans)"
    t_max = max(s.max_seconds for s in stats) or 1.0
    name_w = max(len(s.name) for s in stats)
    lines = [f"{'phase':<{name_w}}  {'max(s)':>12s} {'mean(s)':>12s} "
             f"{'skew':>6s}  critical"]
    for s in stats:
        bar = "#" * max(1, int(round(s.max_seconds / t_max * width)))
        skew = s.max_seconds / s.mean_seconds if s.mean_seconds > 0 else 1.0
        lines.append(
            f"{s.name:<{name_w}}  {s.max_seconds:>12.6f} "
            f"{s.mean_seconds:>12.6f} {skew:>5.2f}x  rank {s.critical_rank}")
        lines.append(f"{'':<{name_w}}  |{bar}")
    cp = report.critical_path()
    lines.append(f"{'':<{name_w}}  phase sum {cp['explained']:.6f}s "
                 f"explains {cp['coverage']:.1%} of {cp['elapsed']:.6f}s")
    return "\n".join(lines)


def comm_heat(report: "TraceReport", *, max_cells: int = 32) -> str:
    """Byte-volume heat matrix, senders as rows, receivers as columns.

    Worlds larger than ``max_cells`` ranks are tiled down to contiguous
    rank blocks, the report's edges binned into the grid (never a
    ``(p, p)`` matrix), so totals are kept.  Intensity is linear in
    bytes within the displayed matrix."""
    p = report.p
    src, dst, nbytes = report.comm_edges()
    if nbytes.sum() == 0:
        return "(no communication recorded)"
    blocks = min(p, max_cells)
    bounds = np.linspace(0, p, blocks + 1).astype(np.int64)
    m = np.zeros((blocks, blocks), dtype=np.int64)
    np.add.at(m, (np.searchsorted(bounds, src, side="right") - 1,
                  np.searchsorted(bounds, dst, side="right") - 1), nbytes)
    label = (f"{p} ranks tiled to {blocks}x{blocks} blocks "
             f"(block = {p // blocks}+ ranks)" if p > max_cells
             else f"{p} ranks")
    peak = m.max() or 1
    lines = [f"bytes sent, src rows -> dst cols ({label}; "
             f"peak cell {int(peak):,} B)"]
    for i in range(blocks):
        row = "".join(
            _RAMP[min(len(_RAMP) - 1, int(m[i, j] / peak * (len(_RAMP) - 1)))]
            for j in range(blocks))
        lines.append(f"{i:>4d} |{row}|")
    lines.append(f"{'':>4s}  scale: '{_RAMP[0]}'=0 .. '{_RAMP[-1]}'=peak")
    return "\n".join(lines)


def rank_timeline(report: "TraceReport", *, width: int = 64,
                  max_ranks: int = 12) -> str:
    """Per-rank phase gantt of a traced run (:func:`gantt`)."""
    traces = [[(t0, t1, name) for t0, t1, cat, name, _a in spans
               if cat == "phase"] for spans in report.spans]
    return gantt(traces, width=width, max_ranks=max_ranks,
                 title=f"virtual-time phases, p={report.p}")
