"""Outside-in tracing of spdecrit's layers.

Each public function is replaced, at the name its caller looks up, by a
wrapper that records a span (name, tag, start, end, parent span, command
id) or only bumps a counter.  Spans stay in memory and are written out
when the traced process ends; ``summarize`` turns them into additive
per-pass totals, with each layer's self time being its spans' durations
minus the parts their child spans cover.  Nothing here touches the
program's own output.

Run as a script, it traces one CLI command in a fresh process:

    python3 perfbench/tracer.py SPANS_FILE COMMAND_ID -- ARGV...
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, cmd=None):
        self.cmd = cmd
        self.spans = []  # [name, tag, start, end, parent index, command id]
        self.stack = []
        self.counts = defaultdict(float)
        self.missing = []
        self._installed = []
        self._hook = None

    def add_span(self, name, start, end, tag=None):
        self.spans.append([name, tag, start, end, self.stack[-1] if self.stack else -1, self.cmd])

    def take(self):
        """Recorded spans and counts so far; clears both."""
        data = {"spans": list(self.spans), "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return data

    # -- wrapping -----------------------------------------------------------

    def span_wrapper(self, name, fn, tag=None, work=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tag(args, kwargs) if tag else None, 0.0, 0.0, stack[-1] if stack else -1, tracer.cmd]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if work:
                work(counts, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn, work):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            work(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets):
        """Wrap every (owner, attribute, name, tag, work) target.

        owner is a module path, or "module:Class" for methods; name None
        means count only.  A target whose module is loaded is wrapped now;
        one whose module is not loaded yet is wrapped right after the
        program first imports it, so tracing never imports a module the
        program would not.  Targets missing from their loaded module are
        listed in self.missing rather than failing the run.
        """
        self.missing = []
        pending = defaultdict(list)
        for target in targets:
            module_path = target[0].partition(":")[0]
            if module_path in sys.modules:
                self._wrap(sys.modules[module_path], target)
            else:
                pending[module_path].append(target)
        if pending:
            self._hook = _WrapOnImport(self, pending)
            sys.meta_path.insert(0, self._hook)

    def _wrap(self, module, target):
        owner_path, attr, name, tag, work = target
        cls_name = owner_path.partition(":")[2]
        try:
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
        except (AttributeError, KeyError):
            self.missing.append(f"{owner_path}.{attr}")
            return
        fn = original.__func__ if isinstance(original, classmethod) else original
        wrapped = self.span_wrapper(name, fn, tag, work) if name else self.count_wrapper(fn, work)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        if self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        self._hook = None
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


class _WrapOnImport:
    """Import hook: wraps a module's pending targets once the module has run."""

    def __init__(self, tracer, pending):
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        for finder in sys.meta_path:
            find = getattr(finder, "find_spec", None)
            if finder is self or find is None:
                continue
            spec = find(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module, targets = loader.exec_module, self.pending.pop(fullname)

        def exec_and_wrap(module):
            exec_module(module)
            for t in targets:
                self.tracer._wrap(module, t)

        loader.exec_module = exec_and_wrap
        return spec


# ---------------------------------------------------------------------------
# targets


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _shape_tag(args, kwargs):
    return "n" + "x".join(str(n) for n in _arg(args, kwargs, 1, "grid_shape"))


def _z1_work(counts, args, kwargs, result):
    steps = _arg(args, kwargs, 3, "steps")
    counts["lab.noise.z1_steps"] += steps
    counts["lab.noise.z1_steps." + _shape_tag(args, kwargs)] += steps


def _heat_work(counts, args, kwargs, result):
    counts["lab.heat.heat_steps"] += _arg(args, kwargs, 3, "steps")


def _gap_tag(args, kwargs):
    return f"n{_arg(args, kwargs, 2, 'n')}"


def _gap_work(counts, args, kwargs, result):
    counts["lab.heat.gap_samples." + _gap_tag(args, kwargs)] += getattr(result, "size", 1)


def _expand_work(counts, args, kwargs, result):
    counts["expansion.output_terms"] += len(result.rows) + len(result.candidates)


def _io_work(counts, args, kwargs, result):
    files = [p for p in Path(_arg(args, kwargs, 1, "directory")).iterdir() if p.is_file()]
    counts["lab.io.files_written"] += len(files)
    counts["lab.io.bytes_written"] += sum(p.stat().st_size for p in files)


def _bump(key):
    def work(counts, args, kwargs, result):
        counts[key] += 1

    return work


def _fft_work(counts, args, kwargs, result):
    counts["numpy.fft.calls"] += 1
    counts["numpy.fft.points"] += max(result.size, _size(args[0] if args else kwargs["a"]))


def _size(a):
    size = getattr(a, "size", None)
    if size is None:
        import numpy

        size = numpy.size(a)
    return size


# Bindings the expansion looks up itself, whoever calls expand.
_EXPANSION = [
    ("spdecrit.dsl:SpdeSpec", "with_overrides", "dsl.with_overrides", None, None),
    ("spdecrit.expansion", "validate_spec", "dsl.validate_spec", None, None),
    ("spdecrit.expansion", "classify", "expansion.classify", None, None),
    ("spdecrit.expansion", "scaling_exponent", "expansion.scaling_exponent", None, None),
    ("spdecrit.expansion", "product_analytic", None, None, _bump("expansion.product_analytic_calls")),
]
_REPORT = ("report_payload", "render_table", "build_envelope", "serialize_envelope")

# The symbolic sweep enters through the package API and spdecrit.report.
SWEEP_TARGETS = _EXPANSION + [
    ("spdecrit", "load_bundled_spec", "dsl.load_bundled_spec", None, None),
    ("spdecrit", "validate_spec", "dsl.validate_spec", None, None),
    ("spdecrit", "expand", "expansion.expand", None, _expand_work),
] + [("spdecrit.report", fn, f"report.{fn}", None, None) for fn in _REPORT]

SUITES = ("inequality", "uniqueness", "tychonov", "steklov", "noise", "bony")
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

# The CLI binds pipeline names with `from ... import`; suites and the CLI
# reach the lab through module attributes.
CLI_TARGETS = _EXPANSION + [
    ("spdecrit.cli", "load_bundled_spec", "dsl.load_bundled_spec", None, None),
    ("spdecrit.cli", "validate_spec", "dsl.validate_spec", None, None),
    ("spdecrit.cli", "expand", "expansion.expand", None, _expand_work),
    ("spdecrit.cli", "subsample", "lab.heat.subsample", None, None),
    ("spdecrit.lab.heat", "subsample", "lab.heat.subsample", None, None),
    ("spdecrit.lab.noise", "solve_z1_mild", "lab.noise.solve_z1_mild", _shape_tag, _z1_work),
    ("spdecrit.lab.noise", "sample_spatial_white", "lab.noise.sample_spatial_white", None, None),
    ("spdecrit.lab.heat", "solve_damped_heat", "lab.heat.solve_damped_heat", None, _heat_work),
    ("spdecrit.lab.heat", "l1_contraction_curve", "lab.heat.l1_contraction_curve", None, None),
    ("spdecrit.lab.heat", "steklov_average", "lab.heat.steklov_average", None, None),
    ("spdecrit.lab.heat", "proof_inequality_gap", "lab.heat.proof_inequality_gap", _gap_tag, _gap_work),
    ("spdecrit.lab.fields", "lp_fields", "lab.fields.lp_fields", None, None),
    ("spdecrit.lab.fields", "estimate_holder_exponent", "lab.fields.estimate_holder_exponent", None, None),
    ("spdecrit.lab.fields", "bony_decompose", "lab.fields.bony_decompose", None, None),
    ("spdecrit.lab.fields", "synthetic_field", "lab.fields.synthetic_field", None, None),
    ("spdecrit.lab.tychonov:TychonovSeries", "build", "lab.tychonov.build", None, None),
    ("spdecrit.lab.tychonov:TychonovSeries", "g_derivative_mp", None, None,
     _bump("lab.tychonov.g_derivative_mp_calls")),
    ("spdecrit.lab.tychonov", "tychonov_eval", "lab.tychonov.tychonov_eval", None, None),
    ("spdecrit.lab.tychonov", "tychonov_eval_mp", "lab.tychonov.tychonov_eval_mp", None, None),
    ("spdecrit.lab.tychonov", "tychonov_residual", "lab.tychonov.tychonov_residual", None, None),
    ("spdecrit.lab.tychonov", "fd_heat_residual", "lab.tychonov.fd_heat_residual", None, None),
    ("spdecrit.lab.tychonov", "analytic_heat_residual_mp", "lab.tychonov.analytic_heat_residual_mp", None, None),
    ("spdecrit.lab.io", "write_trajectory", "lab.io.write_trajectory", None, _io_work),
] + [("spdecrit.cli", fn, f"report.{fn}", None, None) for fn in _REPORT] + [
    ("spdecrit.suites", f"run_{suite}", f"suites.run_{suite}", None, None) for suite in SUITES
] + [("numpy.fft", fn, None, None, _fft_work) for fn in FFT_FUNCTIONS]


# ---------------------------------------------------------------------------
# summaries


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def summarize(data, into=None):
    """Add one process's (or one part's) spans and counts to a flat total."""
    out = into if into is not None else defaultdict(float)
    spans = data["spans"]
    covered = [0.0] * len(spans)
    for name, tag, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name, tag, start, end, _, _), child_time in zip(spans, covered):
        duration = end - start
        out[f"{name}_s"] += duration
        out[f"{name}_calls"] += 1
        out[f"{name}_self_s"] += duration - child_time
        out[f"{layer_of(name)}.self_s"] += duration - child_time
        if tag is not None:
            out[f"{name}_s.{tag}"] += duration
            out[f"{name}_calls.{tag}"] += 1
    for key, value in data["counts"].items():
        out[key] += value
    return out


# ---------------------------------------------------------------------------
# traced CLI process


def main(argv) -> int:
    spans_path, cmd, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE COMMAND_ID -- ARGV...")
    tracer = Tracer(cmd)
    start = perf_counter()
    import spdecrit.cli

    tracer.add_span("cli.import", start, perf_counter())
    tracer.install(CLI_TARGETS)
    try:
        code = tracer.span_wrapper("cli.main", spdecrit.cli.main)(cli_argv)
    finally:
        tracer.uninstall()
        data = tracer.take()
        data["cmd"] = cmd
        data["missing"] = tracer.missing
        # Tracing imports nothing, so these are the modules the command loaded.
        data["modules"] = {name: name in sys.modules for name in ("numpy", "mpmath")}
        Path(spans_path).write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
