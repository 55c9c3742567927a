"""Command-line surface.

Exit codes: 0 success, 1 a verification check failed, 2 bad input
(parse errors, invalid values, config keys a command does not read,
work over its budget or too large to allocate), 3 I/O failure.  Each command lists its
one-value options once, in a table of option -> (converter, default);
`verify` has one table per suite, and a suite refuses the others' options.
A flag overrides the config-file entry of the same name, which
overrides the default; flag and config values go through the same
converter.  SPDECRIT_SEED supplies the seed when neither gives one.
`spdecrit tychonov ARGS` reads as `spdecrit verify tychonov ARGS`.

Bad input raises `errors.InputError`, `SpecError` or `ExpansionError`,
whose text names the flags first; any other exception is a fault and
shows its traceback.

Each command imports only what it runs.  `analyze` loads the symbolic
half (`dsl`, `expansion`, `rules`, `affine`) and never numpy.  `verify`
and `noise sample` (of the lab, only `fields`, `noise` and `io`) load
numpy and the lab but not the symbolic half, and only `verify tychonov`
loads mpmath.  The names below that reach either half look up what they
call in its defining module at every call, importing it on the first.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

from . import _MODULE_OF, __version__
from .errors import ExpansionError, InputError, SpecError, check_budget
from .report import atomic_write, build_envelope, render_table, report_payload, serialize_envelope

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def run_suite(name: str, **options) -> dict:
    """`spdecrit.suites.run_<name>`, looked up when called, importing the lab on first use."""
    from . import suites

    return getattr(suites, f"run_{name}")(**options)


def _symbolic(name: str):
    """`spdecrit.<name>`, looked up in the module the package's export table
    gives for it when called, as run_suite looks up the lab's runners."""
    module = _MODULE_OF[name]

    def call(*args, **kwargs):
        return getattr(import_module(module), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


load_bundled_spec, parse_spec, validate_spec, expand = map(
    _symbolic, ("load_bundled_spec", "parse_spec", "validate_spec", "expand")
)


def _env_seed() -> int:
    raw = os.environ.get("SPDECRIT_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise InputError(f"SPDECRIT_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise InputError(f"SPDECRIT_SEED must not be negative, got {raw!r}")
    return seed


def _checked(convert, test, expects: str):
    """A converter: convert the text, then refuse a value that fails test."""

    def check(text: str):
        value = convert(text)
        if not test(value):
            raise ValueError(f"expects {expects}")
        return value

    return check


def _one_of(*choices, convert=str):
    return _checked(convert, choices.__contains__, " or ".join(map(str, choices)))


def _positive(convert):
    return _checked(convert, lambda value: 0 < value < math.inf, "a positive finite value")


_odd_power = _checked(int, lambda n: n >= 3 and n % 2 == 1, "an odd integer >= 3")
_power_of_two = _checked(int, lambda n: n >= 4 and n & (n - 1) == 0, "a power of two >= 4")


def _levels(text: str) -> int:
    from .expansion import MAX_LEVELS_LIMIT  # analyze loads the symbolic half anyway

    return _checked(int, lambda levels: 1 <= levels <= MAX_LEVELS_LIMIT, f"an integer in [1, {MAX_LEVELS_LIMIT}]")(text)


def _dim(text: str):
    """A concrete dimension, or None (symbolic) for 'symbolic' or 'd'."""
    return None if text in ("symbolic", "d") else int(text)


_region = _checked(
    lambda text: tuple(float(p) for p in text.split(",")),
    lambda r: len(r) == 4 and all(map(math.isfinite, r)) and 0 < r[0] < r[1] and r[2] < r[3],
    "finite t0,t1,x0,x1 with 0 < t0 < t1 and x0 < x1",
)


# option -> (converter of the raw flag or config string, default); a
# callable default is called only when neither source gives the option
_RENDER = {"format": (_one_of("table", "json"), "table"), "out": (str, None)}
_ANALYZE = {"levels": (_levels, 4), "dim": (_dim, "keep"), **_RENDER}
_SEED = {"seed": (_checked(int, lambda seed: seed >= 0, "a non-negative integer"), _env_seed)}
# suite -> the options its runner reads, each passed to it
_SUITES = {
    "uniqueness": {"n": (_odd_power, 3), "dim": (_one_of(1, convert=int), 1), "grid": (_power_of_two, 256),
                   "tmax": (_positive(float), 1.0), "dt": (_positive(float), 1.0e-4)},
    "inequality": {"n": (_odd_power, None), "samples": (_positive(int), 1_000_000), **_SEED},
    "steklov": {**_SEED, "samples": (_positive(int), 100)},
    "tychonov": {"alpha": (_checked(int, lambda alpha: alpha >= 2, "an integer >= 2"), 2),
                 "terms": (_positive(int), 30), "region": (_region, (0.5, 1.0, -1.0, 1.0))},
    "noise": {**_SEED, "grid": (_power_of_two, 4096), "ensembles": (_positive(int), 16)},
    "bony": _SEED,
}
SUITE_NAMES = tuple(_SUITES)
# the verify flags in the order help and errors list them: every suite's
# options, and the seed, which every suite accepts and echoes
_VERIFY = ("n", "samples", "seed", "grid", "dim", "dt", "tmax", "alpha", "terms", "ensembles", "region", *_RENDER)
# bytes of the rows `noise sample` keeps: 25 times those of the largest
# benchmarked form, --dim 2 --grid 256 --steps 100 (11 rows of 256 x 129
# complex modes, 5.8 MB)
_SAMPLE_BUDGET = 25 * 11 * 256 * 129 * 16
_NOISE_SAMPLE = {
    "dim": (_one_of(1, 2, convert=int), 1), "grid": (_power_of_two, 4096), **_SEED, "kind": (_one_of("white", "z1"), "z1"),
    "steps": (_positive(int), 400), "dt": (_positive(float), 2.5e-3), "out": (str, "noise_out"),
}


def _read_text(path, named: str) -> str:
    """The file at path as UTF-8 text; `named` is how the command line gave it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{named}: {exc}") from None


def _read_config(path) -> dict:
    """key value; items, same comment and rational syntax as spec files."""
    text = re.sub(r"#[^\n]*", "", _read_text(path, f"--config {path}"))
    out = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = item.split(None, 1)
        if len(parts) != 2:
            raise InputError(f"config item {item!r} is not 'key value;'")
        out[parts[0]] = parts[1].strip()
    return out


def _given(args, table: dict, command: str, unread=()) -> dict:
    """The text of each option of `table` that its flag, else `--config`, gives;
    `unread` names the parser's other options, which `command` refuses."""
    config = _read_config(args.config) if args.config else {}
    stray = sorted(set(config) - set(table) - set(unread))
    if stray:
        raise InputError(f"{command} does not read config key {', '.join(stray)}")
    refused = [f"--{name}" for name in unread if getattr(args, name) is not None or name in config]
    if refused:
        raise InputError(f"{command} does not read {', '.join(refused)}")
    given = {name: config[name] for name in table if name in config}
    given.update((name, getattr(args, name)) for name in table if getattr(args, name) is not None)
    return given


def _convert(table: dict, given: dict) -> dict:
    """Every option of `table`, converted from its given text, else its default."""
    values = {}
    for name, (convert, default) in table.items():
        if name not in given:
            values[name] = default() if callable(default) else default
            continue
        try:
            values[name] = convert(given[name])
        except ValueError as exc:
            raise InputError(f"--{name} {given[name]!r}: {exc}") from None
    return values


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write(Path(out_path), text.encode())
    else:
        sys.stdout.write(text)


def _load_spec_source(ref: str):
    from .dsl import BUNDLED_SPECS

    path = Path(ref)
    if path.exists():
        return parse_spec(_read_text(path, ref))
    stem = path.stem
    if stem in BUNDLED_SPECS:
        return load_bundled_spec(stem)
    raise InputError(f"no spec file {ref!r} and no bundled spec of that name")


def _apply_params(spec, params):
    known = {"gamma", "alpha", "gamma1", "n"}
    kwargs = {}
    for item in params or ():
        key, _, value = item.partition("=")
        if key not in known or not value:
            raise InputError(f"--param expects k=v with k in {sorted(known)}, got {item!r}")
        try:
            kwargs[key] = int(value) if key == "n" else Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"--param {item!r}: {exc}")
    return spec.with_overrides(**kwargs) if kwargs else spec


def _cmd_analyze(args) -> int:
    opts = _convert(_ANALYZE, _given(args, _ANALYZE, "analyze"))
    spec = _apply_params(_load_spec_source(args.spec), args.param).with_overrides(dim=opts["dim"])

    for diag in validate_spec(spec):
        if diag.severity == "warning":
            print(f"warning: {diag.code}: {diag.message}", file=sys.stderr)

    report = expand(spec, max_levels=opts["levels"])
    if opts["format"] == "json":
        payload = report_payload(report)
        cfg_echo = {"spec": args.spec, "levels": opts["levels"], "dim": payload["dimension"], "params": list(args.param or ())}
        text = serialize_envelope(build_envelope("analyze", cfg_echo, payload))
    else:
        text = render_table(report)
    _emit(text, opts["out"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    reads = _SUITES[args.suite]
    table = {**_SEED, **reads, **_RENDER}
    given = _given(args, table, f"verify {args.suite}", [name for name in _VERIFY if name not in table])
    opts = _convert(table, given)
    result = run_suite(args.suite, **{name: opts[name] for name in reads})

    if opts["format"] == "json":
        # what a flag or the config gave, and the seed: echoing defaults would change every seeded digest
        cfg_echo = {name: opts[name] for name in reads if name in given}
        cfg_echo.update(seed=opts["seed"], suite=args.suite)
        text = serialize_envelope(build_envelope("verify", cfg_echo, {"suite": result["suite"]}, checks=result["checks"]))
    else:
        lines = []
        for c in result["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            extra = f"  [{c['value']!r}]" if "value" in c else ""
            lines.append(f"{status}  {c['name']}{extra}")
        lines.append("suite " + ("passed" if result["passed"] else "FAILED"))
        text = "\n".join(lines) + "\n"
    _emit(text, opts["out"])
    return EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _stride(steps: int, rows: int = sys.maxsize) -> int:
    """The largest divisor of steps that is at most steps // 8, or 1.

    About 8 intervals, but only a divisor keeps the endpoints and one dt.
    A divisor above isqrt(steps) is steps // q for a q at most isqrt(steps),
    so both searches stop there, or with 1 once no divisor left keeps at
    most `rows` rows, steps // divisor + 1: at most min(isqrt(steps), rows)
    trials each, and a step count none of whose divisors fits keeps every row.
    """
    root = math.isqrt(steps)
    for q in range(8, min(root, max(8, rows - 1)) + 1):  # the fewest intervals, at least 8, that split the steps
        if steps % q == 0:
            return steps // q
    for d in range(min(root, steps // 8), max(2, steps // max(rows - 1, 1)) - 1, -1):
        if steps % d == 0:
            return d
    return 1


def _cmd_noise_sample(args) -> int:
    given = _given(args, _NOISE_SAMPLE, "noise sample")
    if given.get("kind") == "white":  # it steps nothing, whatever --steps and --dt say
        unread = [f"--{name}" for name in ("steps", "dt") if name in given]
        if unread:
            raise InputError(f"noise sample --kind white does not read {', '.join(unread)}")
    opts = _convert(_NOISE_SAMPLE, given)
    dim, grid, seed, kind, steps, dt, out_dir = (opts[k] for k in ("dim", "grid", "seed", "kind", "steps", "dt", "out"))
    modes = grid ** (dim - 1) * (grid // 2 + 1)  # of the half spectrum
    if kind == "white":
        rows, flags = 1, f"--grid {grid}"
    else:
        if steps * Fraction(dt) > sys.float_info.max:  # exact: steps may pass a float
            raise InputError(f"--dt {dt!r} --steps {steps}: the end time dt * steps overflows a double")
        stride = _stride(steps, _SAMPLE_BUDGET // (modes * 16))
        rows, flags = steps // stride + 1, f"--steps {steps} --grid {grid}"
    bytes_kept = rows * modes * 16
    check_budget(flags, bytes_kept, _SAMPLE_BUDGET, f"the sample keeps {rows} x {modes} complex modes, {bytes_kept} bytes")

    from .lab import fields as lf
    from .lab import io as lio
    from .lab import noise as ln

    shape = (grid,) * dim
    if args.estimate:
        try:  # the fit needs enough blocks; check before sampling
            lf.fit_window(shape)
        except lf.ResolutionError as exc:
            raise InputError(f"--dim {dim} --grid {grid} --estimate: {exc}") from None
    if kind == "white":
        rows, row_dt, times = [ln.sample_spatial_white(dim, shape, seed)], 1.0, [0.0]
    else:
        # exact OU steps compose: one step of dt * stride between written
        # rows gives them the law of the march at dt, without its other rows
        row_dt = dt * stride
        rows = ln.solve_z1_mild(dim, shape, row_dt, steps // stride, seed)
        # k * dt as numpy's arange(0, steps + 1, stride) * dt has it, for any
        # size of int; each row is transformed back as it is written
        times = [k * dt for k in range(0, steps + 1, stride)]
    if args.estimate:  # before writing, so that a fit that fails writes nothing
        try:
            exponent = lf.estimate_holder_exponent(rows[-1])
        except lf.ResolutionError as exc:  # a z1 field whose end time is so short that its blocks underflow to zero
            raise InputError(f"--dt {dt!r} --steps {steps} --estimate: {exc}") from None
    lio.write_trajectory(lio.Trajectory(row_dt, times, map(lf.values_of, rows)), out_dir, seed=seed)

    if args.estimate:
        print(f"fitted exponent: {exponent:.4f}")
    print(f"wrote {out_dir}")
    return EXIT_OK


def _add_options(parser, names, func) -> None:
    for name in names:
        parser.add_argument(f"--{name}")
    parser.add_argument("--config", help="file of 'key value;' items, one key per option")
    parser.set_defaults(func=func)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spdecrit",
        description="criticality analyzer and numerical lab",
        epilog="`spdecrit tychonov ARGS` runs `spdecrit verify tychonov ARGS`.",
    )
    top.add_argument("--version", action="version", version=f"spdecrit {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="expand a spec into its regularity table")
    pa.add_argument("spec", help="path to a .spde file or a bundled spec name")
    pa.add_argument("--param", action="append", metavar="K=V", help="override gamma, alpha, gamma1 or n")
    _add_options(pa, _ANALYZE, _cmd_analyze)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", choices=SUITE_NAMES)
    _add_options(pv, _VERIFY, _cmd_verify)

    pn = sub.add_parser("noise", help="noise and first-object sampling")
    nsub = pn.add_subparsers(dest="noise_command", required=True)
    ps = nsub.add_parser("sample", help="draw a field and write snapshots")
    ps.add_argument("--estimate", action="store_true")
    _add_options(ps, _NOISE_SAMPLE, _cmd_noise_sample)

    return top


def _expand_alias(argv: list) -> list:
    """`tychonov ARGS` is `verify tychonov ARGS`."""
    return ["verify", *argv] if argv[:1] == ["tychonov"] else argv


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_expand_alias(list(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InputError, SpecError, ExpansionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
