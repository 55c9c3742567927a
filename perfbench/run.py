"""spdecrit benchmark: three closed-loop workloads with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S
    python3 perfbench/run.py --compare OLD_RESULTS_DIR NEW_RESULTS_DIR

Run from the root of a source checkout.  The program is run from
``src/`` (PYTHONPATH=src); fresh processes are ``python -m spdecrit.cli``,
one child at a time.  Each run prints its metrics by name, writes its
full result to ``.perfbench/results/`` and ends with one JSON line.  See
perfbench/README.md for the workloads, metrics and how to read them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 13  # set-ups per run, spread over it; setup_s is their median
SWEEP_CHILDREN = 4  # the sweep runs as this many child processes, three set-ups before each
CHILD_TIMEOUT = 60.0  # one command; the slowest takes a few seconds
SLACK = 120.0  # a run gives up, without a result, this long after its --seconds
PY = sys.executable

WORKLOADS = ("analyze_cold", "symbolic_sweep", "verify_cli")


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# Within a run an item's time is the upper quartile of its samples.  On
# a shared machine the speed is mostly at one loaded level, with fast
# spells whose share of a run varies from run to run.  The upper part of
# an item's samples tracks the loaded level and reads the same from run
# to run; its fastest sample or its median tracks how much of the run
# fell in a fast spell.  See perfbench/README.md for the measurements.


def item_time(values):
    return percentile(values, 75)


def timing(values):
    """An item's time, with its fastest and median samples and sample count."""
    return {"value": item_time(values), "unit": "s", "n": len(values), "best": min(values),
            "median": statistics.median(values)}


def item_latency(samples):
    """Typical and tail latency over a workload's items, in ms.

    Each item counts once, at its item time.  Typical is the median and
    the geometric mean over items; the geometric mean weighs every item,
    where the median of a few unlike items (the 8 verify commands) rests
    on the middle two.  The tail is the highest percentile over items
    with at least ten items beyond it, or the slowest item when there
    are fewer than 20 items.
    """
    times = [item_time(v) for v in samples.values()]
    n = sum(map(len, samples.values()))
    p50 = {"value": statistics.median(times) * 1e3, "unit": "ms", "n": n, "items": len(times)}
    geomean = {"value": math.exp(statistics.fmean(map(math.log, times))) * 1e3, "unit": "ms", "n": n,
               "items": len(times)}
    levels = [p for p in (99.0, 95.0, 90.0) if len(times) * (100 - p) / 100 >= 10]
    if levels:
        high = {"value": percentile(times, levels[0]) * 1e3, "unit": "ms", "n": n, "percentile": levels[0]}
    else:
        high = {"value": max(times) * 1e3, "unit": "ms", "n": n, "percentile": "slowest item"}
    high["items"] = len(times)
    return p50, geomean, high


def pass_time(samples):
    """One pass, rebuilt from item times."""
    return sum(item_time(v) for v in samples.values())


# ---------------------------------------------------------------------------
# child processes


class Children:
    """Runs one child at a time and keeps the largest resident set seen."""

    def __init__(self, budget):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.peak_rss_kb = 0
        self.budget = budget
        self.deadline = perf_counter() + budget

    def run(self, argv, stdout_path, timeout=CHILD_TIMEOUT):
        """Wall time and exit code of one child; stdout goes to a file."""
        timeout = min(timeout, self.deadline - perf_counter())
        if timeout <= 0:
            raise SystemExit(f"run exceeded its {self.budget:g} s budget")
        with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, proc.returncode

    def cli(self, cli_argv, stdout_path, spans_path=None, cmd=None):
        if spans_path is None:
            return self.run([PY, "-m", "spdecrit.cli", *cli_argv], stdout_path)
        return self.run([PY, str(BENCH / "tracer.py"), str(spans_path), cmd, "--", *cli_argv], stdout_path)


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"item": what, "problems": problems})


def _exit_problems(code, stdout_path):
    if code == 0:
        return []
    err = Path(str(stdout_path) + ".err").read_text(errors="replace").strip().splitlines()
    return [f"exit code {code}" + (f": {err[-1]}" if err else "")]


def _read_trace(spans_path, cmd, summary):
    data = json.loads(Path(spans_path).read_text())
    tracer.summarize(data, summary)
    summary["trace.processes"] += 1
    summary["cli.numpy_loaded"] += data["modules"]["numpy"]
    summary["cli.mpmath_loaded"] += data["modules"]["mpmath"]
    for key in ("numpy.fft.calls", "numpy.fft.points"):
        summary[f"{key}.{cmd}"] += data["counts"].get(key, 0)
    summary.setdefault("missing", set()).update(data["missing"])


def cli_passes(orders, seconds, trace, run_item, setups, setup):
    """Closed loop over seeded passes; with tracing, passes alternate untraced/traced.

    After the first set-up, another is timed each time a further
    1/(SETUPS - 1) of the run has passed, so the set-up samples spread
    over the run like the item samples do.
    """
    samples, traced_samples, traced = defaultdict(list), defaultdict(list), []
    start = perf_counter()
    passes = 0
    while passes < 1 + trace or perf_counter() - start < seconds:
        summary = defaultdict(float) if trace and passes % 2 == 1 else None
        for key in next(orders):
            wall = run_item(key, summary)
            (samples if summary is None else traced_samples)[key].append(wall)
            while len(setups) < SETUPS and perf_counter() - start >= len(setups) * seconds / (SETUPS - 1):
                setups.append(setup()[0])
        if summary is not None:
            traced.append(summary)
        passes += 1
    while len(setups) < SETUPS:
        setups.append(setup()[0])
    return samples, traced_samples, traced


# ---------------------------------------------------------------------------
# workloads


def cli_setup(keys, seed, warmup_argv, tmp, children, outcome):
    """One set-up: seeded pass orders, a temp dir and one warm-up process.

    Returns its wall time, the orders and the dir.
    """
    start = perf_counter()
    orders = workloads.pass_orders(keys, seed)
    work = Path(tempfile.mkdtemp(dir=tmp))
    _, code = children.cli(warmup_argv(work), work / "warmup.out")
    elapsed = perf_counter() - start
    if code:
        outcome.record("setup warm-up", _exit_problems(code, work / "warmup.out"))
    return elapsed, orders, work


def run_analyze_cold(seed, seconds, trace, tmp, children, outcome):
    def setup():
        return cli_setup(workloads.ANALYZE_KEYS, seed, lambda work: workloads.analyze_argv("navier_stokes.table"),
                         tmp, children, outcome)

    first, orders, work = setup()
    setups = [first]

    def run_item(key, summary):
        out, spans = work / "item.out", work / "spans.json"
        wall, code = children.cli(workloads.analyze_argv(key), out, spans if summary is not None else None, key)
        problems = _exit_problems(code, out)
        try:
            problems += checks.check_analyze(key, out.read_text())
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        if summary is not None and spans.exists():
            _read_trace(spans, key, summary)
            spans.unlink()
        outcome.record(f"analyze {key}", problems)
        return wall

    samples, traced_samples, traced = cli_passes(orders, seconds, trace, run_item, setups, setup)
    return {
        "setups": setups,
        "samples": samples,
        "latency": samples,
        "traced_samples": traced_samples,
        "detail": {},
        "traced": traced,
    }


def run_verify_cli(seed, seconds, trace, tmp, children, outcome):
    sys.path.insert(0, str(SRC))  # the trajectory read-back check uses spdecrit.lab.io
    import spdecrit.lab.io  # noqa: F401

    def setup():
        return cli_setup(workloads.VERIFY_KEYS, seed,
                         lambda work: workloads.verify_argv("verify_bony", seed, str(work / "warmup.json")),
                         tmp, children, outcome)

    first, orders, work = setup()
    setups = [first]
    counter = itertools.count()

    def run_item(key, summary):
        out = work / f"{key}-{next(counter)}"
        out.mkdir()
        kind = workloads.VERIFY_COMMANDS[key][1]
        target = out / ("out.json" if kind == "file" else "traj")
        argv = workloads.verify_argv(key, seed, str(target))
        spans = out / "spans.json" if summary is not None else None
        wall, code = children.cli(argv, out / "stdout", spans, key)
        problems = _exit_problems(code, out / "stdout")
        try:
            if kind == "file":
                problems += checks.check_verify(target)
            else:
                dim, grid = (int(argv[argv.index(flag) + 1]) for flag in ("--dim", "--grid"))
                problems += checks.check_noise_sample(target, (out / "stdout").read_text(), dim, grid)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        if spans is not None and spans.exists():
            _read_trace(spans, key, summary)
        outcome.record(f"{key} --seed {seed}", problems)
        shutil.rmtree(out)
        return wall

    samples, traced_samples, traced = cli_passes(orders, seconds, trace, run_item, setups, setup)
    return {
        "setups": setups,
        "samples": samples,
        "latency": samples,
        "traced_samples": traced_samples,
        "detail": {f"{key}_s": timing(samples[key]) for key in workloads.VERIFY_KEYS},
        "traced": traced,
    }


def run_symbolic_sweep(seed, seconds, trace, tmp, children, outcome):
    """The sweep runs as SWEEP_CHILDREN child processes, with three
    set-ups before each and one after the last; with tracing, every
    second child is traced.  Each child measures for an equal share of
    the time left, so one child's last pass does not lengthen the run."""
    script = str(BENCH / "sweep.py")
    log = tmp / "sweep.out"

    def setup():
        wall, code = children.run([PY, script, "--seed", str(seed), "--setup-only"], log)
        if code:
            outcome.record("setup", _exit_problems(code, log))
        return wall

    setups, times, traced_times, traced_passes, traced_result = [], None, None, [], None
    measured = 0.0
    for index in range(SWEEP_CHILDREN):
        setups += [setup() for _ in range((SETUPS - 1) // SWEEP_CHILDREN)]
        share = max(seconds - measured, 0.0) / (SWEEP_CHILDREN - index)
        traced_child = int(trace and index % 2 == 1)
        out = tmp / f"sweep-{index}.json"
        argv = [PY, script, "--seed", str(seed), "--seconds", repr(share), "--trace", str(traced_child),
                "--out", str(out)]
        wall, code = children.run(argv, log, timeout=children.budget)
        measured += wall
        if code:
            outcome.record("sweep child", _exit_problems(code, log))
            raise SystemExit(f"sweep child failed with exit code {code}")
        result = json.loads(out.read_text())
        outcome.attempted += result["attempted"]
        outcome.failures += result["failures"]
        if traced_child:
            traced_times = _merge_times(traced_times, result["times"])
            traced_passes += result["traced"]
            traced_result = result
        else:
            times = _merge_times(times, result["times"])
    setups.append(setup())

    parts = result["parts"]
    samples = dict(enumerate(times))
    item_times = [item_time(t) for t in times]
    part_s = {p: sum(t for t, q in zip(item_times, parts) if q == p) for p in ("shallow", "deep")}
    traced = []
    for pass_parts in traced_passes:
        merged = defaultdict(float)
        for part, summary in pass_parts.items():
            for k, v in summary.items():
                merged[k] += v
            merged[f"part_output_terms.{part}"] = summary.get("expansion.output_terms", 0)
            merged[f"part_expand_s.{part}"] = summary.get("expansion.expand_s", 0)
        merged["cli.numpy_loaded"] = float(traced_result["numpy_loaded"])
        merged["cli.mpmath_loaded"] = float(traced_result["mpmath_loaded"])
        merged["missing"] = set(traced_result["missing"])
        merged["expansion.deep_slowest_item_s"] = max(t for t, q in zip(item_times, parts) if q == "deep")
        traced.append(merged)
    passes = min(len(t) for t in times)
    return {
        "setups": setups,
        "samples": samples,
        "latency": {i: t for i, t in samples.items() if parts[i] == "shallow"},
        "traced_samples": dict(enumerate(traced_times)) if traced_times else {},
        "detail": {
            "sweep_shallow_s": {"value": part_s["shallow"], "unit": "s", "n": passes},
            "sweep_deep_s": {"value": part_s["deep"], "unit": "s", "n": passes},
        },
        "traced": traced,
    }


def _merge_times(into, times):
    """Per-item sample lists, extended by another slice's."""
    if into is None:
        return [list(t) for t in times]
    for samples, more in zip(into, times):
        samples.extend(more)
    return into


RUNNERS = {
    "analyze_cold": run_analyze_cold,
    "symbolic_sweep": run_symbolic_sweep,
    "verify_cli": run_verify_cli,
}


# ---------------------------------------------------------------------------
# per-layer metrics from traced passes


def layer_metrics(s):
    """Per-layer metrics of one traced pass, for the layers it exercised."""
    m = {}

    def put(name, value, unit):
        if value is not None:
            m[name] = {"value": value, "unit": unit}

    def total(span):
        return s.get(f"{span}_s")

    def per_call(span, scale=1e6):
        calls = s.get(f"{span}_calls", 0)
        return s[f"{span}_s"] / calls * scale if calls else None

    procs = s.get("trace.processes", 0)
    if procs:
        put("cli.import_ms", s.get("cli.import_s", 0) / procs * 1e3, "ms")
        put("cli.main_ms", s.get("cli.main_s", 0) / procs * 1e3, "ms")
        for mod in ("numpy", "mpmath"):
            put(f"cli.{mod}_loaded", s[f"cli.{mod}_loaded"] / procs, "frac")
    else:
        for mod in ("numpy", "mpmath"):
            put(f"cli.{mod}_loaded", s.get(f"cli.{mod}_loaded", 0.0), "frac")
    for span in ("dsl.load_bundled_spec", "dsl.with_overrides", "dsl.validate_spec", "expansion.classify",
                 "expansion.scaling_exponent", "report.report_payload", "report.render_table",
                 "report.build_envelope", "report.serialize_envelope"):
        put(f"{span}_us", per_call(span), "us")
    analyses = s.get("expansion.expand_calls", 0)
    put("dsl.validate_spec_calls_per_analysis", s.get("dsl.validate_spec_calls", 0) / analyses if analyses else 0.0,
        "count")
    put("expansion.expand_s", total("expansion.expand"), "s")
    for key in ("expansion.expand_calls", "expansion.output_terms", "expansion.product_analytic_calls",
                "lab.noise.z1_steps", "lab.heat.heat_steps", "lab.heat.steklov_average_calls",
                "lab.tychonov.tychonov_eval_mp_calls", "lab.tychonov.g_derivative_mp_calls",
                "lab.io.files_written", "numpy.fft.calls", "numpy.fft.points"):
        put(key, s.get(key, 0.0), "count")
    put("lab.io.bytes_written", s.get("lab.io.bytes_written", 0.0), "B")
    put("numpy.fft.bytes_computed", s.get("numpy.fft.points", 0.0) * 16, "B")
    for part in ("shallow", "deep"):
        terms = s.get(f"part_output_terms.{part}")
        if terms:
            put(f"expansion.us_per_output_term.{part}", s[f"part_expand_s.{part}"] / terms * 1e6, "us")
    put("expansion.deep_slowest_item_s", s.get("expansion.deep_slowest_item_s"), "s")
    put("report.self_ms", s.get("report.self_s", 0.0) * 1e3, "ms")
    for key, value in s.items():
        if not isinstance(value, float):
            continue
        if key.endswith(".self_s") and not key.startswith("suites.run_"):
            put(key, value, "s")  # layer self time
        elif key.startswith("suites.run_") and key.endswith("_self_s"):
            put("suites." + key[len("suites.run_"):-len("_self_s")] + ".self_s", value, "s")
        elif key.startswith("lab.") and key.endswith("_s") and not key.endswith("_self_s"):
            put(key, value, "s")
        elif key.startswith("lab.") and "_s." in key:
            put(key, value, "s")  # per-tag totals such as proof_inequality_gap_s.n3
        elif key.startswith("numpy.fft.") and key.count(".") == 3:
            put(key, value, "count")  # per command
            if key.startswith("numpy.fft.points."):
                put("numpy.fft.bytes_computed." + key.split(".", 3)[3], value * 16, "B")
        elif key.startswith("lab.noise.z1_steps."):
            tag = key[len("lab.noise.z1_steps."):]
            put(f"lab.noise.us_per_z1_step.{tag}", s[f"lab.noise.solve_z1_mild_s.{tag}"] / value * 1e6, "us")
        elif key.startswith("lab.heat.gap_samples."):
            tag = key[len("lab.heat.gap_samples."):]
            put(f"lab.heat.ns_per_gap_sample.{tag}", s[f"lab.heat.proof_inequality_gap_s.{tag}"] / value * 1e9, "ns")
    if s.get("lab.heat.heat_steps"):
        put("lab.heat.us_per_heat_step", s["lab.heat.solve_damped_heat_s"] / s["lab.heat.heat_steps"] * 1e6, "us")
    return m


def traced_metrics(run):
    per_pass = [layer_metrics(s) for s in run["traced"]]
    out = {}
    for name in per_pass[0]:
        values = [p[name]["value"] for p in per_pass if name in p]
        out[name] = {"value": statistics.median(values), "unit": per_pass[0][name]["unit"], "n": len(values)}
    overhead = pass_time(run["traced_samples"]) / pass_time(run["samples"]) - 1.0
    out["trace.overhead_frac"] = {"value": overhead, "unit": "frac", "n": 1}
    return out


# ---------------------------------------------------------------------------
# environment


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        1 for path in sorted((SRC / "spdecrit").rglob("*.py")) for line in path.read_text().splitlines() if line.strip()
    )
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "seed": seed,
        "src_nonblank_lines": src_lines,
    }


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# one run


def load_contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name, seed, seconds, trace, results_dir):
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    children, outcome = Children(seconds + SLACK), Outcome()
    try:
        run = RUNNERS[name](seed, seconds, trace, tmp, children, outcome)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(outcome.failures)
    detail = {
        "setup_s": {"value": statistics.median(run["setups"]), "unit": "s", "n": len(run["setups"])},
        "peak_rss_mb": {"value": children.peak_rss_kb / 1024.0, "unit": "MB"},
        "failed_frac": {
            "value": failed / max(outcome.attempted, 1),
            "unit": "frac",
            "attempted": outcome.attempted,
            "failed": failed,
        },
    }
    end_to_end = {}
    if not trace:  # a traced run times too few untraced passes for the end-to-end metrics
        p50, geomean, tail = item_latency(run["latency"])
        end_to_end = {
            "setup_s": detail["setup_s"],
            "item_ms_geomean": geomean,
            "item_ms_tail": tail,
            "pass_s": {"value": pass_time(run["samples"]), "unit": "s", "n": min(map(len, run["samples"].values()))},
            "peak_rss_mb": detail["peak_rss_mb"],
        }
        detail.update(run["detail"])
        if name == "analyze_cold":
            detail["analyze_cold_ms_p50"], detail["analyze_cold_ms_tail"] = p50, tail
    contract = load_contract()
    if trace:
        layers = traced_metrics(run)
        metrics = {}
        for spec in contract["per_layer"]:
            entry = layers.get(spec["name"], {"value": 0.0, "unit": spec["unit"], "n": 0})
            metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
        missing = sorted(set().union(*(s.get("missing", set()) for s in run["traced"])))
    else:
        layers, missing = {}, []
        metrics = {m["name"]: {"value": end_to_end[m["name"]]["value"], "unit": m["unit"]} for m in contract["end_to_end"]}
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(seed),
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "failures": outcome.failures,
        "end_to_end": end_to_end,
        "detail": detail,
        "per_layer": layers,
        "unwrapped": missing,
        "samples": {str(k): v for k, v in run["samples"].items()},
        "setups": run["setups"],
        "metrics": metrics,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-trace{trace}-seed{seed}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def _fmt(entry):
    text = f"{entry['value']:.6g} {entry['unit']}"
    if "n" in entry:
        text += f"  n={entry['n']}"
    if "items" in entry:
        text += f" over {entry['items']} items"
    if "percentile" in entry:
        level = entry["percentile"]
        text += f"  {level}" if isinstance(level, str) else f"  p{level:g}"
    if "attempted" in entry:
        text += f"  ({entry['failed']} failed of {entry['attempted']} attempted)"
    return text


def print_result(result):
    env = result["env"]
    print(f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} trace={result['trace']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for section in ("end_to_end", "detail", "per_layer"):
        for name, entry in sorted(result[section].items()):
            print(f"{section:10s} {name:48s} {_fmt(entry)}")
    if result["unwrapped"]:
        print("# not traced (missing in this commit): " + ", ".join(result["unwrapped"]))
    for failure in result["failures"]:
        print(f"FAILED {failure['item']}: {'; '.join(failure['problems'])}")


# ---------------------------------------------------------------------------
# all workloads, and compare


# the per-workload end-to-end metrics that --all prints by name
NAMED_METRICS = (
    ("analyze_cold", "analyze_cold_ms_p50"),
    ("analyze_cold", "analyze_cold_ms_tail"),
    ("symbolic_sweep", "sweep_shallow_s"),
    ("symbolic_sweep", "sweep_deep_s"),
) + tuple(("verify_cli", f"{key}_s") for key in workloads.VERIFY_KEYS)


def run_all(seed, seconds, results_dir):
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, seed, seconds, 0, results_dir)
        print_result(results[name])
    print("# the 15 end-to-end metrics")
    for workload, name in NAMED_METRICS:
        print(f"{name:28s} {_fmt(results[workload]['detail'][name])}  [{workload}]")
    setup = sum(r["detail"]["setup_s"]["value"] for r in results.values())
    print(f"{'setup_s':28s} {setup:.6g} s  (sum of the three workloads' medians)")
    peak = max(r["detail"]["peak_rss_mb"]["value"] for r in results.values())
    print(f"{'peak_rss_mb':28s} {peak:.6g} MB  (max over the workloads)")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"{'failed_frac':28s} {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    return results


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


COUNT_UNITS = ("count", "B")
TIMING_RATIOS = ("trace.overhead_frac",)  # a "frac" that is a ratio of timings, not of counts


def is_count(name, unit):
    return unit in COUNT_UNITS or (unit == "frac" and name not in TIMING_RATIOS)


def verdict(old, new, bound, exact=False):
    """better / worse / unchanged / unresolved for a lower-is-better metric.

    Counts (exact) compare as same / changed.  A timing is worse when its
    median is worse by more than the bound, and better when the new side
    wins nine tenths of all pairs of runs and the medians differ by more
    than the old side's quartile spread.  Otherwise it is unchanged,
    unless either side's quartile spread is wider than the bound: then it
    is unresolved, or unchanged only if every new run beats every old
    run.  A timing without a bound (per-layer) is worse by the mirror of
    the better rule, and otherwise unresolved.
    """
    if exact:
        return "same" if sorted(old) == sorted(new) else "changed"
    q1a, ma, q3a = _quartiles(old)
    q1b, mb, q3b = _quartiles(new)
    pairs = [(a, b) for a in old for b in new]
    wins = sum(b < a for a, b in pairs) / len(pairs)
    losses = sum(b > a for a, b in pairs) / len(pairs)
    if bound is not None and (mb - ma) / ma > bound:
        return "worse"
    if wins >= 0.9 and ma - mb > q3a - q1a:
        return "better"
    if bound is None:
        return "worse" if losses >= 0.9 and mb - ma > q3a - q1a else "unresolved"
    if max((q3a - q1a) / ma, (q3b - q1b) / mb) > bound and wins < 1:
        return "unresolved"
    return "unchanged"


def _load_results(directory):
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def _bounds():
    contract = load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    # a per-workload timing takes the bound of the end-to-end metric it feeds
    for _, name in NAMED_METRICS:
        feeds = {"_p50": "item_ms_geomean", "_tail": "item_ms_tail"}.get(name[name.rfind("_"):], "pass_s")
        bounds[name] = bounds[feeds]
    return bounds


def compare(old_dir, new_dir):
    old, new = _load_results(old_dir), _load_results(new_dir)
    bounds = _bounds()
    for group in sorted(set(old) & set(new)):
        if min(len(old[group]), len(new[group])) < 10:
            print(f"# {group[0]} trace={group[1]}: fewer than ten runs on a side; verdicts are weak")
    print(f"{'workload':15s} {'metric':48s} {'old median [q1, q3]':34s} {'new median [q1, q3]':34s} verdict")
    for group in sorted(set(old) & set(new)):
        workload, trace = group
        sections = ("per_layer",) if trace else ("end_to_end", "detail")
        names = {}
        for section in sections:
            for r in old[group] + new[group]:
                for name in r[section]:
                    names.setdefault(name, section)
        for name, section in sorted(names.items()):
            a = [r[section][name]["value"] for r in old[group] if name in r[section]]
            b = [r[section][name]["value"] for r in new[group] if name in r[section]]
            if not a or not b:
                continue
            unit = (old[group][0][section].get(name) or new[group][0][section][name])["unit"]
            qa, qb = _quartiles(a), _quartiles(b)
            print(
                f"{workload + ('*' if trace else ''):15s} {name:48s} "
                f"{f'{qa[1]:.6g} [{qa[0]:.4g}, {qa[2]:.4g}]':34s} {f'{qb[1]:.6g} [{qb[0]:.4g}, {qb[2]:.4g}]':34s} "
                f"{verdict(a, b, None if trace else bounds.get(name), is_count(name, unit))}"
            )
    print("# * traced runs: per-layer timings have no bound; counts and count ratios compare exactly")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced and print all metrics")
    ap.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=WORK / "results", help="where result files go")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    if not (SRC / "spdecrit" / "cli.py").is_file():
        print(f"error: no spdecrit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.all:
        results = run_all(args.seed, args.seconds, args.results)
        return 0 if all(r["correct"] for r in results.values()) else 1
    if not args.workload:
        ap.error("give --workload, --all or --compare")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.results)
    print_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
