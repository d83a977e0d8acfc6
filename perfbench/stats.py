"""Statistics of the repo benchmark: medians, the percentile rule,
span self time and the result line.

Kept free of I/O so perfbench/test_stats.py can check every rule the
reported numbers rest on.
"""

import json
import math

# Percentiles the tail rule may report, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    return percentile(values, 50.0)


def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it, or None when even the median has too few."""
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def tail_summary(values):
    """(percentile, value, sample count) by the tail rule; the
    percentile is None when there are fewer than 2 * TAIL_MIN_BEYOND
    samples."""
    p = tail_percentile(len(values))
    return p, (percentile(values, p) if p is not None else None), len(values)


def merge_intervals(intervals):
    """Union of [start, end) intervals as a sorted disjoint list."""
    out = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its children (clipped to the span, with
    overlapping children counted once).

    `spans` maps span id -> (parent id, start, end); returns id ->
    self time in the same unit.
    """
    children = {}
    for sid, (parent, start, end) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (_, start, end) in spans.items():
        covered = 0
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ())]
        for s, e in merge_intervals(clipped):
            covered += e - s
        out[sid] = (end - start) - covered
    return out


def result_line(correct, attempted, failed, metrics, declared):
    """The benchmark's last stdout line.

    `metrics` maps name -> (value, unit); `declared` lists the
    (name, unit) pairs BENCHMARK.json declares for this mode.  Every
    declared metric must be present with its unit and a finite value.
    """
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    out = {}
    for name, unit in declared:
        if name not in metrics:
            raise ValueError("metric %s was not measured" % name)
        value, got_unit = metrics[name]
        if got_unit != unit:
            raise ValueError("metric %s has unit %s, declared %s"
                             % (name, got_unit, unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number" % name)
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})
