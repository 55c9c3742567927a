"""Command-line surface.

Exit codes: 0 success, 1 a verification check failed, 2 bad input
(parse errors, invalid values, config keys a command does not read,
work too large to allocate), 3 I/O failure.  Each command lists its
one-value options once, in a table of option -> (converter, default);
`verify` has one table per suite, and a suite refuses the others' options.
A flag overrides the config-file entry of the same name, which
overrides the default; flag and config values go through the same
converter.  SPDECRIT_SEED supplies the seed when neither gives one.
`spdecrit tychonov ARGS` reads as `spdecrit verify tychonov ARGS`.

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
from .errors import ExpansionError, SpecError
from .report import atomic_write, build_envelope, render_table, report_payload, serialize_envelope

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


class CliInputError(Exception):
    pass


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


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError("expects a non-negative integer")
    return seed


def _env_seed() -> int:
    raw = os.environ.get("SPDECRIT_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise CliInputError(f"SPDECRIT_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise CliInputError(f"SPDECRIT_SEED must not be negative, got {raw!r}")
    return seed


def _one_of(*choices, convert=str):
    def check(text: str):
        value = convert(text)
        if value not in choices:
            raise ValueError(f"expects {' or '.join(map(str, choices))}")
        return value

    return check


def _dim(text: str):
    """A concrete dimension, or None (symbolic) for 'symbolic' or 'd'."""
    return None if text in ("symbolic", "d") else int(text)


def _region(text: str) -> tuple:
    pieces = tuple(float(p) for p in text.split(","))
    if len(pieces) != 4:
        raise ValueError("expects t0,t1,x0,x1")
    t0, t1, x0, x1 = pieces
    if not all(map(math.isfinite, pieces)) or not (0 < t0 < t1 and x0 < x1):
        raise ValueError("expects finite t0,t1,x0,x1 with 0 < t0 < t1 and x0 < x1")
    return pieces


# option -> (converter of the raw flag or config string, default); a
# callable default is called only when neither source gives the option
_RENDER = {"format": (_one_of("table", "json"), "table"), "out": (str, None)}
_ANALYZE = {"levels": (int, 4), "dim": (_dim, "keep"), **_RENDER}
_SEED = {"seed": (_seed, _env_seed)}
# suite -> the options its runner reads, each passed to it
_SUITES = {
    "uniqueness": {"n": (int, 3), "dim": (int, 1), "grid": (int, 256), "tmax": (float, 1.0), "dt": (float, 1.0e-4)},
    "inequality": {"n": (int, None), "samples": (int, 1_000_000), **_SEED},
    "steklov": {**_SEED, "samples": (int, 100)},
    "tychonov": {"alpha": (int, 2), "terms": (int, 30), "region": (_region, (0.5, 1.0, -1.0, 1.0))},
    "noise": {**_SEED, "grid": (int, 4096), "ensembles": (int, 16)},
    "bony": _SEED,
}
SUITE_NAMES = tuple(_SUITES)
# the verify flags in the order help and errors list them: every suite's
# options, and the seed, which every suite accepts and echoes
_VERIFY = ("n", "samples", "seed", "grid", "dim", "dt", "tmax", "alpha", "terms", "ensembles", "region", *_RENDER)
_NOISE_SAMPLE = {
    "dim": (_one_of(1, 2, convert=int), 1), "grid": (int, 4096), **_SEED,
    "kind": (_one_of("white", "z1"), "z1"), "steps": (int, 400), "dt": (float, 2.5e-3), "out": (str, "noise_out"),
}


def _read_config(path) -> dict:
    """key value; items, same comment and rational syntax as spec files."""
    text = Path(path).read_text(encoding="utf-8")
    text = re.sub(r"#[^\n]*", "", text)
    out = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = item.split(None, 1)
        if len(parts) != 2:
            raise CliInputError(f"config item {item!r} is not 'key value;'")
        out[parts[0]] = parts[1].strip()
    return out


def _options(args, table: dict, command: str, unread=()):
    """Every option of `table`, from its flag, else `--config`, else its default.

    `unread` names the parser's other options, which `command` refuses from
    a flag or the config alike.  Returns the values and the set of options
    a flag or the config gave.
    """
    config = _read_config(args.config) if args.config else {}
    stray = sorted(set(config) - set(table) - set(unread))
    if stray:
        raise CliInputError(f"{command} does not read config key {', '.join(stray)}")
    refused = [f"--{name}" for name in unread if getattr(args, name) is not None or name in config]
    if refused:
        raise CliInputError(f"{command} does not read {', '.join(refused)}")
    values, given = {}, set()
    for name, (convert, default) in table.items():
        raw = getattr(args, name)
        if raw is None:
            raw = config.get(name)
        if raw is None:
            values[name] = default() if callable(default) else default
            continue
        given.add(name)
        try:
            values[name] = convert(raw)
        except ValueError as exc:
            raise CliInputError(f"--{name} {raw!r}: {exc}")
    return values, given


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write(Path(out_path), text.encode())
    else:
        sys.stdout.write(text)


def _load_spec_source(ref: str):
    from .dsl import BUNDLED_SPECS

    path = Path(ref)
    if path.exists():
        return parse_spec(path.read_text(encoding="utf-8"))
    stem = path.stem
    if stem in BUNDLED_SPECS:
        return load_bundled_spec(stem)
    raise CliInputError(f"no spec file {ref!r} and no bundled spec of that name")


def _apply_params(spec, params):
    known = {"gamma", "alpha", "gamma1", "n"}
    kwargs = {}
    for item in params or ():
        key, _, value = item.partition("=")
        if key not in known or not value:
            raise CliInputError(f"--param expects k=v with k in {sorted(known)}, got {item!r}")
        try:
            kwargs[key] = int(value) if key == "n" else Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(f"--param {item!r}: {exc}")
    return spec.with_overrides(**kwargs) if kwargs else spec


def _cmd_analyze(args) -> int:
    opts, _ = _options(args, _ANALYZE, "analyze")
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
    if args.suite not in _SUITES:
        raise CliInputError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}")
    reads = _SUITES[args.suite]
    table = {**_SEED, **reads, **_RENDER}
    opts, given = _options(args, table, f"verify {args.suite}", [name for name in _VERIFY if name not in table])
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


def _stride(steps: int) -> int:
    """The largest divisor of steps that is at most steps // 8, or 1.

    About 8 intervals, but only a divisor keeps the endpoints and one dt.
    A divisor above isqrt(steps) is steps // q for a q at most isqrt(steps),
    so both searches stop there: O(sqrt(steps)) for a prime step count,
    which keeps every row, and a few trials for most others.
    """
    root = math.isqrt(steps)
    for q in range(8, root + 1):  # the fewest intervals, at least 8, that split the steps
        if steps % q == 0:
            return steps // q
    for d in range(min(root, steps // 8), 1, -1):
        if steps % d == 0:
            return d
    return 1


def _cmd_noise_sample(args) -> int:
    opts, given = _options(args, _NOISE_SAMPLE, "noise sample")
    dim, grid, seed, kind, out_dir = (opts[k] for k in ("dim", "grid", "seed", "kind", "out"))
    unread = [f"--{name}" for name in ("steps", "dt") if name in given]
    if kind == "white" and unread:
        raise CliInputError(f"noise sample --kind white does not read {', '.join(unread)}")
    for name in ("steps", "dt"):
        if kind == "z1" and not 0 < opts[name] < math.inf:
            raise CliInputError(f"--{name} '{opts[name]!r}': expects a positive finite value")
    if kind == "z1" and opts["steps"] * Fraction(opts["dt"]) > sys.float_info.max:  # exact: steps may pass a float
        raise CliInputError(f"--dt {opts['dt']!r} --steps {opts['steps']}: the end time dt * steps overflows a double")

    from .lab import fields as lf
    from .lab import io as lio
    from .lab import noise as ln

    shape = (grid,) * dim
    if args.estimate:
        lf.fit_window(shape)  # the fit needs enough blocks; check before sampling
    if kind == "white":
        field = ln.sample_spatial_white(dim, shape, seed)
        traj = lf.Trajectory(dt=1.0, times=[0.0], spectral=field.spectral[None])
    else:
        steps, dt = opts["steps"], opts["dt"]
        stride = _stride(steps)
        # exact OU steps compose: one step of dt * stride between written
        # rows gives them the law of the march at dt, without its other rows
        solved = ln.solve_z1_mild(dim, shape, dt * stride, steps // stride, seed)
        # k * dt as numpy's arange(0, steps + 1, stride) * dt has it, for any size of int
        times = [k * dt for k in range(0, steps + 1, stride)]
        traj = lf.Trajectory(dt * stride, times, spectral=solved.spectral_array())
        field = traj.final()
    lio.write_trajectory(traj, out_dir, seed=seed)

    if args.estimate:
        exponent = lf.estimate_holder_exponent(field)
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
    pv.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}")
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
    except (SpecError, ExpansionError, CliInputError, ValueError, KeyError) as exc:
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
