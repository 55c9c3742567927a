"""Command-line surface.

Exit codes: 0 success, 1 a verification check failed, 2 bad input
(parse errors, invalid parameters), 3 I/O failure.  Flags override
config-file entries, which override built-in defaults; SPDECRIT_SEED
supplies the default seed.

Only the commands that run the numerical lab import it (and with it
numpy and mpmath), so `analyze` starts with the symbolic half alone.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dsl import BUNDLED_SPECS, SpecError, load_bundled_spec, parse_spec, validate_spec
from .expansion import ExpansionError, expand
from .report import (
    SUITE_NAMES,
    atomic_write,
    build_envelope,
    render_table,
    report_payload,
    serialize_envelope,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


class CliInputError(Exception):
    pass


def run_suite(name: str, **kwargs) -> dict:
    """`spdecrit.suites.run_suite`, importing the lab on first use."""
    from .suites import run_suite as run

    return run(name, **kwargs)


def _default_seed() -> int:
    raw = os.environ.get("SPDECRIT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise CliInputError(f"SPDECRIT_SEED must be an integer, got {raw!r}")


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


def _merge(args, config: dict, name: str, convert, default=None):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        try:
            return convert(config[name])
        except (ValueError, TypeError) as exc:
            raise CliInputError(f"config value for {name!r}: {exc}")
    return default


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write(Path(out_path), text.encode())
    else:
        sys.stdout.write(text)


def _load_spec_source(ref: str):
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
        kwargs[key] = int(value) if key == "n" else Fraction(value)
    return spec.with_overrides(**kwargs) if kwargs else spec


def _cmd_analyze(args) -> int:
    config = _read_config(args.config) if args.config else {}
    spec = _load_spec_source(args.spec)
    spec = _apply_params(spec, args.param)
    dim_arg = _merge(args, config, "dim", str)
    if dim_arg is not None:
        spec = spec.with_overrides(dim=None if dim_arg in ("symbolic", "d") else int(dim_arg))
    levels = _merge(args, config, "levels", int, 4)

    for diag in validate_spec(spec):
        if diag.severity == "warning":
            print(f"warning: {diag.code}: {diag.message}", file=sys.stderr)

    report = expand(spec, max_levels=levels)
    payload = report_payload(report)
    cfg_echo = {
        "spec": args.spec,
        "levels": levels,
        "dim": payload["dimension"],
        "params": list(args.param or ()),
    }
    doc = build_envelope("analyze", cfg_echo, payload)
    doc["_rendered"] = render_table(report)
    fmt = _merge(args, config, "format", str, "table")
    out_path = _merge(args, config, "out", str)
    text = serialize_envelope({k: v for k, v in doc.items() if k != "_rendered"}) if fmt == "json" else doc["_rendered"]
    _emit(text, out_path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _read_config(args.config) if args.config else {}
    if args.suite not in SUITE_NAMES:
        raise CliInputError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}")
    region = None
    region_arg = _merge(args, config, "region", str)
    if region_arg:
        pieces = [float(p) for p in region_arg.split(",")]
        if len(pieces) != 4:
            raise CliInputError("--region expects t0,t1,x0,x1")
        region = tuple(pieces)
    kwargs = {
        "n": _merge(args, config, "n", int),
        "samples": _merge(args, config, "samples", int),
        "seed": _merge(args, config, "seed", int, _default_seed()),
        "grid": _merge(args, config, "grid", int),
        "dim": _merge(args, config, "dim", int),
        "dt": _merge(args, config, "dt", float),
        "tmax": _merge(args, config, "tmax", float),
        "alpha": _merge(args, config, "alpha", int),
        "terms": _merge(args, config, "terms", int),
        "ensembles": _merge(args, config, "ensembles", int),
        "region": region,
    }
    stray = sorted(set(config) - set(kwargs) - {"format", "out"})
    if stray:
        raise CliInputError(f"verify {args.suite} does not read config key {', '.join(stray)}")
    result = run_suite(args.suite, **kwargs)
    cfg_echo = {k: v for k, v in kwargs.items() if v is not None}
    cfg_echo["suite"] = args.suite
    doc = build_envelope("verify", cfg_echo, {"suite": result["suite"]}, checks=result["checks"])

    fmt = _merge(args, config, "format", str, "table")
    out_path = _merge(args, config, "out", str)
    if fmt == "json":
        text = serialize_envelope(doc)
    else:
        lines = []
        for c in result["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            extra = f"  [{c['value']!r}]" if "value" in c else ""
            lines.append(f"{status}  {c['name']}{extra}")
        lines.append("suite " + ("passed" if result["passed"] else "FAILED"))
        text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    return EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _cmd_noise_sample(args) -> int:
    from .lab import fields as lf
    from .lab import heat as lh
    from .lab import io as lio
    from .lab import noise as ln

    config = _read_config(args.config) if args.config else {}
    dim = _merge(args, config, "dim", int, 1)
    grid = _merge(args, config, "grid", int, 4096)
    seed = _merge(args, config, "seed", int, _default_seed())
    kind = _merge(args, config, "kind", str, "z1")
    steps = _merge(args, config, "steps", int, 400)
    dt = _merge(args, config, "dt", float, 2.5e-3)
    out_dir = _merge(args, config, "out", str, "noise_out")
    shape = (grid,) * dim

    if kind == "white":
        field = ln.sample_spatial_white(dim, shape, seed)
        traj = lf.Trajectory(dt=1.0, times=[0.0], fields=[field])
        lio.write_trajectory(traj, out_dir, n=grid, seed=seed)
    elif kind == "z1":
        traj = ln.solve_z1_mild(dim, shape, dt, steps, seed)
        # about 8 intervals, but only a divisor of the steps keeps the
        # endpoints and one dt; a prime step count keeps every row
        stride = max(d for d in range(1, max(1, traj.steps // 8) + 1) if traj.steps % d == 0)
        lio.write_trajectory(lh.subsample(traj, stride), out_dir, n=grid, seed=seed)
        field = traj.final()
    else:
        raise CliInputError(f"--kind must be white or z1, got {kind!r}")

    if args.estimate:
        exponent = lf.estimate_holder_exponent(field)
        print(f"fitted exponent: {exponent:.4f}")
    print(f"wrote {out_dir}")
    return EXIT_OK


def _cmd_tychonov(args) -> int:
    config = _read_config(args.config) if args.config else {}
    alpha = _merge(args, config, "alpha", int, 2)
    terms = _merge(args, config, "terms", int, 30)
    region_arg = _merge(args, config, "region", str)
    region = (0.5, 1.0, -1.0, 1.0)
    if region_arg:
        pieces = [float(p) for p in region_arg.split(",")]
        if len(pieces) != 4:
            raise CliInputError("--region expects t0,t1,x0,x1")
        region = tuple(pieces)
    result = run_suite("tychonov", alpha=alpha, terms=terms, region=region)
    doc = build_envelope(
        "tychonov",
        {"alpha": alpha, "terms": terms, "region": list(region)},
        {"suite": "tychonov"},
        checks=result["checks"],
    )
    fmt = _merge(args, config, "format", str, "table")
    out_path = _merge(args, config, "out", str)
    if fmt == "json":
        text = serialize_envelope(doc)
    else:
        lines = [
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}" + (f"  [{c['value']!r}]" if "value" in c else "")
            for c in result["checks"]
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    return EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spdecrit", description="criticality analyzer and numerical lab")
    top.add_argument("--version", action="version", version=f"spdecrit {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="expand a spec into its regularity table")
    pa.add_argument("spec", help="path to a .spde file or a bundled spec name")
    pa.add_argument("--levels", type=int, default=None)
    pa.add_argument("--dim", default=None, help="concrete dimension or 'symbolic'")
    pa.add_argument("--param", action="append", metavar="K=V", help="override gamma, alpha, gamma1 or n")
    pa.add_argument("--format", choices=("table", "json"), default=None)
    pa.add_argument("--out", default=None)
    pa.add_argument("--config", default=None)
    pa.set_defaults(func=_cmd_analyze)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}")
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--grid", type=int, default=None)
    pv.add_argument("--dim", type=int, default=None)
    pv.add_argument("--dt", type=float, default=None)
    pv.add_argument("--tmax", type=float, default=None)
    pv.add_argument("--alpha", type=int, default=None)
    pv.add_argument("--terms", type=int, default=None)
    pv.add_argument("--ensembles", type=int, default=None)
    pv.add_argument("--region", default=None)
    pv.add_argument("--format", choices=("table", "json"), default=None)
    pv.add_argument("--out", default=None)
    pv.add_argument("--config", default=None)
    pv.set_defaults(func=_cmd_verify)

    pn = sub.add_parser("noise", help="noise and first-object sampling")
    nsub = pn.add_subparsers(dest="noise_command", required=True)
    ps = nsub.add_parser("sample", help="draw a field and write snapshots")
    ps.add_argument("--dim", type=int, default=None)
    ps.add_argument("--grid", type=int, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--kind", choices=("white", "z1"), default=None)
    ps.add_argument("--steps", type=int, default=None)
    ps.add_argument("--dt", type=float, default=None)
    ps.add_argument("--estimate", action="store_true")
    ps.add_argument("--out", default=None)
    ps.add_argument("--config", default=None)
    ps.set_defaults(func=_cmd_noise_sample)

    pt = sub.add_parser("tychonov", help="evaluate the zero-trace caloric series")
    pt.add_argument("--alpha", type=int, default=None)
    pt.add_argument("--terms", type=int, default=None)
    pt.add_argument("--region", default=None, help="t0,t1,x0,x1")
    pt.add_argument("--format", choices=("table", "json"), default=None)
    pt.add_argument("--out", default=None)
    pt.add_argument("--config", default=None)
    pt.set_defaults(func=_cmd_tychonov)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SpecError, ExpansionError, CliInputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
