"""Symbolic-sweep child: one process, timed after imports.

    PYTHONPATH=src python3 perfbench/sweep.py --seed N --seconds S --trace 0|1 --out FILE
    PYTHONPATH=src python3 perfbench/sweep.py --seed N --setup-only

Every analysis goes through the public pipeline, looked up at call time
so the tracer can wrap it: load_bundled_spec -> with_overrides ->
validate_spec -> expand -> report_payload / render_table /
build_envelope + serialize_envelope.  Passes over the seeded item list
repeat until the time is up, at least one; with --trace 1 every pass is
traced.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import spdecrit
import spdecrit.report

import checks
import tracer as tracing
import workloads


def analyze(item):
    _, spec_name, dim, levels, overrides = item
    spec = spdecrit.load_bundled_spec(spec_name)
    if dim != "keep":
        overrides = dict(overrides, dim=dim)
    spec = spec.with_overrides(**overrides)
    spdecrit.validate_spec(spec)
    report = spdecrit.expand(spec, levels)
    payload = spdecrit.report.report_payload(report)
    spdecrit.report.render_table(report)
    config = {"spec": spec_name, "levels": levels, "dim": payload["dimension"]}
    text = spdecrit.report.serialize_envelope(spdecrit.report.build_envelope("analyze", config, payload))
    return report, text


def run_pass(items, times, failures, tracer=None):
    """One pass; when tracing, returns each part's spans and counts."""
    parts = {}
    for index, item in enumerate(items):
        if tracer is not None and item[0] != tracer.cmd:
            if tracer.cmd is not None:
                parts[tracer.cmd] = tracer.take()
            tracer.cmd = item[0]
        start = perf_counter()
        report, text = analyze(item)
        times[index].append(perf_counter() - start)
        problems = checks.check_report(item, report, text)
        if problems:
            failures.append({"item": _describe(item), "problems": problems})
    if tracer is not None:
        parts[tracer.cmd] = tracer.take()
        tracer.cmd = None
    return parts


def _describe(item):
    part, spec, dim, levels, overrides = item
    extra = "".join(f" {k}={v}" for k, v in overrides.items())
    return f"{part} {spec} dim={dim} levels={levels}{extra}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    items = workloads.sweep_items(args.seed)
    for item in workloads.warmup_items():
        analyze(item)
    if args.setup_only:
        return 0

    times = [[] for _ in items]
    failures, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(tracing.SWEEP_TARGETS)
    start = perf_counter()
    passes = 0
    try:
        while passes < 1 or perf_counter() - start < args.seconds:
            parts = run_pass(items, times, failures, tracer)
            if tracer is not None:
                traced.append({part: dict(tracing.summarize(data)) for part, data in parts.items()})
            passes += 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "parts": [item[0] for item in items],
        "times": times,
        "traced": traced,
        "missing": tracer.missing if tracer is not None else [],
        "attempted": sum(len(t) for t in times),
        "failures": failures,
        "numpy_loaded": "numpy" in sys.modules,
        "mpmath_loaded": "mpmath" in sys.modules,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
