#!/usr/bin/env python3
"""Validate the JSON artifacts emitted by the bench smoke run.

Three schemas are recognized (by the top-level ``schema`` key):

 - ``scamv-bench-v1`` from bench/rig.hh: the report envelope every
   gated comparison writes (``BENCH_<bench>.json``).  Checked
   generically: ``legs`` is a non-empty object of legs, each mapping
   names to finite numbers >= 0; ``gates`` is a non-empty list of
   ``{name, value, op, bound}`` checks (op one of ``>=``, ``<=``,
   ``==``) or ``{any_of: [check, ...]}`` disjunctions.  Every gate is
   re-evaluated here from its value, op and bound -- the writer's
   verdict is never trusted -- and ``pass`` must equal the recomputed
   verdict and be true.  Any nested object that carries a known
   ``schema`` (the coverage ledger in BENCH_coverage.json) is
   validated by that schema too;
 - ``scamv-metrics-v1`` from src/support/metrics (SCAMV_METRICS):
   counters, gauges and histograms, with internally consistent
   histogram bucket layouts;
 - ``scamv-coverage-v1`` from src/cover (SCAMV_COVERAGE_FILE):
   per-template coverage-ledger atoms.

Every file is checked; the exit status is non-zero if any file is
missing, unparseable or malformed, or if any gate fails, which is
what makes the CI bench-smoke job a real gate.

Usage: check_bench_json.py FILE [FILE...]
"""

import json
import math
import sys

OPS = {
    ">=": lambda value, bound: value >= bound,
    "<=": lambda value, bound: value <= bound,
    "==": lambda value, bound: value == bound,
}


class Invalid(Exception):
    """A file that is missing, malformed or fails a gate."""


def fail(path, msg):
    raise Invalid(f"{path}: {msg}")


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_finite(x):
    return is_num(x) and math.isfinite(x)


def check_metrics(path, doc):
    counters = doc.get("counters")
    gauges = doc.get("gauges")
    histograms = doc.get("histograms")
    if not isinstance(counters, dict) or not isinstance(gauges, dict) \
            or not isinstance(histograms, dict):
        fail(path, "missing counters/gauges/histograms objects")
    for name, v in counters.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(path, f"counter {name!r}: not a non-negative integer")
    for name, v in gauges.items():
        if not is_num(v):
            fail(path, f"gauge {name!r}: not a number")
    for name, h in histograms.items():
        bounds = h.get("bounds")
        counts = h.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            fail(path, f"histogram {name!r}: missing bounds/counts")
        if len(counts) != len(bounds) + 1:
            fail(path, f"histogram {name!r}: expected "
                       f"{len(bounds) + 1} buckets, got {len(counts)}")
        if bounds != sorted(bounds):
            fail(path, f"histogram {name!r}: bounds not ascending")
        if any(not isinstance(c, int) or c < 0 for c in counts):
            fail(path, f"histogram {name!r}: bad bucket count")
        if not is_num(h.get("sum")) or not isinstance(h.get("count"), int):
            fail(path, f"histogram {name!r}: missing sum/count")
        if sum(counts) != h["count"]:
            fail(path, f"histogram {name!r}: buckets sum to "
                       f"{sum(counts)}, count says {h['count']}")
    if not counters:
        fail(path, "empty counters (campaign recorded nothing?)")
    return (f"{len(counters)} counters, {len(gauges)} gauges, "
            f"{len(histograms)} histograms")


def check_coverage(path, doc):
    templates = doc.get("templates")
    if not isinstance(templates, dict) or not templates:
        fail(path, "no templates recorded")
    for name, cell in templates.items():
        if not isinstance(cell, dict):
            fail(path, f"template {name!r} is not an object")
        for key in ("universe", "covered"):
            v = cell.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(path, f"template {name!r}: {key!r} is not a "
                           "non-negative integer")
        classes = cell.get("classes")
        if not isinstance(classes, dict):
            fail(path, f"template {name!r}: missing classes object")
        hit = 0
        for cls, st in classes.items():
            if not cls.lstrip("-").isdigit():
                fail(path, f"template {name!r}: class key {cls!r} is "
                           "not an integer")
            if not isinstance(st, dict) \
                    or not all(is_num(st.get(k)) for k in
                               ("hits", "draws", "solver_s")):
                fail(path, f"template {name!r}: class {cls!r} is "
                           "missing hits/draws/solver_s")
            if st["hits"] > st["draws"]:
                fail(path, f"template {name!r}: class {cls!r} has "
                           "more hits than draws")
            hit += st["hits"] > 0
        if hit != cell["covered"]:
            fail(path, f"template {name!r}: covered says "
                       f"{cell['covered']}, classes show {hit}")
        if cell["universe"] and cell["covered"] > cell["universe"]:
            fail(path, f"template {name!r}: covered exceeds universe")
        for key in ("path_pairs", "models"):
            if not isinstance(cell.get(key), dict):
                fail(path, f"template {name!r}: missing {key!r} object")
    return f"{len(templates)} templates"


def eval_check(path, check):
    """Recompute one {name, value, op, bound} check."""
    if not isinstance(check, dict) or not isinstance(check.get("name"),
                                                     str):
        fail(path, f"gate {check!r} has no name")
    name = check["name"]
    if check.get("op") not in OPS:
        fail(path, f"gate {name!r}: op {check.get('op')!r} is not one "
                   f"of {', '.join(OPS)}")
    for key in ("value", "bound"):
        if not is_finite(check.get(key)):
            fail(path, f"gate {name!r}: {key} is not a finite number")
    return OPS[check["op"]](check["value"], check["bound"])


def describe(check):
    return (f"{check['name']} {check['value']} {check['op']} "
            f"{check['bound']}")


def check_envelope(path, doc):
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(path, "missing bench name")
    if not isinstance(doc.get("workload"), dict):
        fail(path, "workload is not an object")
    legs = doc.get("legs")
    if not isinstance(legs, dict) or not legs:
        fail(path, "no legs recorded")
    for leg, numbers in legs.items():
        if not isinstance(numbers, dict) or not numbers:
            fail(path, f"leg {leg!r} is not a non-empty object")
        for key, v in numbers.items():
            if not is_finite(v) or v < 0:
                fail(path, f"leg {leg!r}: {key!r} is not a finite "
                           "non-negative number")
    gates = doc.get("gates")
    if not isinstance(gates, list) or not gates:
        fail(path, "no gates recorded")
    failed = []
    for gate in gates:
        if isinstance(gate, dict) and "any_of" in gate:
            members = gate["any_of"]
            if not isinstance(members, list) or not members:
                fail(path, "any_of gate without members")
            if not any([eval_check(path, m) for m in members]):
                failed.append(" and ".join(describe(m)
                                           for m in members))
        elif not eval_check(path, gate):
            failed.append(describe(gate))
    verdict = not failed
    if doc.get("pass") is not verdict:
        fail(path, f"pass is {doc.get('pass')!r} but the gates "
                   f"evaluate to {verdict}")
    if failed:
        fail(path, "gate failed: " + "; ".join(failed))
    return f"{doc['bench']}: {len(gates)} gates pass"


CHECKS = {
    "scamv-bench-v1": check_envelope,
    "scamv-metrics-v1": check_metrics,
    "scamv-coverage-v1": check_coverage,
}


def nested(path, doc):
    """(path, object) for every object below `doc` that carries a
    known schema, outermost first."""
    for key, value in doc.items():
        if not isinstance(value, dict):
            continue
        if value.get("schema") in CHECKS:
            yield f"{path}[{key}]", value
        else:
            yield from nested(f"{path}[{key}]", value)


def check_doc(path, doc):
    """Validate `doc` by its schema, then every nested object that
    carries a known schema of its own."""
    schema = doc.get("schema")
    if schema not in CHECKS:
        fail(path, f"unrecognized schema {schema!r} (expected one of "
                   f"{', '.join(CHECKS)})")
    summary = [CHECKS[schema](path, doc)]
    for inner_path, inner in nested(path, doc):
        summary.append(f"{inner_path}: {check_doc(inner_path, inner)}")
    return "; ".join(summary)


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(path, f"cannot read: {e}")
    except json.JSONDecodeError as e:
        fail(path, f"malformed JSON: {e}")
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    print(f"{path}: OK ({check_doc(path, doc)})")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__.strip())
    # Every file is checked, so one failing report does not hide
    # another.
    invalid = 0
    for path in argv[1:]:
        try:
            check_file(path)
        except Invalid as e:
            print(e, file=sys.stderr)
            invalid += 1
    if invalid:
        raise SystemExit(f"{invalid} of {len(argv) - 1} files invalid")


if __name__ == "__main__":
    main(sys.argv)
