"""Command-line surface: regions, degradedness checks, capacity search,
exact simulation, and ad-hoc information queries over files.

Every command that writes an output file also writes a manifest sidecar
with content digests of its inputs, the tool version, and the seeds in
play, so any output can be regenerated and checked byte for byte. Errors
leave a machine-readable JSON object on stderr and exit with a stable
code: 2 for input problems, 3 for blown resource guards, 4 for internal
invariant violations.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import pathlib
import re
import sys
import time

import numpy as np

from . import __version__
from .channel import (
    check_physically_degraded,
    check_stochastically_degraded,
    load_channel,
)
from .errors import (
    EnumerationTooLarge,
    GmacError,
    GridTooLarge,
    InternalError,
    PieceExplosion,
    SolverStall,
    Unbounded,
    VertexEnumerationOverflow,
)
from .infotheory import (
    _SCHEME_FIELDS,
    entropy,
    mutual_information,
    scheme_from_dict,
    scheme_to_dict,
)
from .optimizer import SearchConfig, assemble_region, maximize_secrecy_capacity
from .regions import frontier_points, frontier_sweep
from .wiretap_sim import simulate

_BOUND_ALIASES = {
    "inner1": "inner-one-set",
    "outer1": "outer-one-set",
    "secrecy1": "secrecy-one-set",
    "degraded": "degraded",
    "two-set": "two-set",
    "secrecy2": "secrecy-two-set",
}

_GUARD_ERRORS = (GridTooLarge, EnumerationTooLarge, VertexEnumerationOverflow,
                 PieceExplosion)
_INTERNAL_ERRORS = (InternalError, SolverStall, Unbounded)

_SIM_KEYS = ("n", "M0", "M1", "M2", "J1", "J2", "input_dist", "seeds")

def _digest_file(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def _digest_doc(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _manifest(command, args, started, seeds, outputs, channel_path=None,
              config_path=None, config_doc=None) -> dict:
    doc = {
        "command": command,
        "tool_version": __version__,
        "channel_digest": _digest_file(channel_path) if channel_path else None,
        "config_digest": (
            _digest_file(config_path) if config_path
            else _digest_doc(config_doc) if config_doc is not None
            else None
        ),
        "seeds": list(seeds),
        "duration_seconds": time.monotonic() - started,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(args),
        "outputs": outputs,
    }
    return doc


def _load_config(path) -> SearchConfig:
    if path is None:
        return SearchConfig()
    return SearchConfig.from_dict(_load_json(path))


def _g9(value: float) -> str:
    # adding 0.0 folds IEEE negative zero into plain zero before printing
    return "%.9g" % (float(value) + 0.0)


def _parse_fix(pairs) -> dict:
    fixed = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--fix expects NAME=VALUE, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"--fix expects NAME=VALUE, got {item!r}")
        fixed[name] = float(raw)
    return fixed


_PLOT_TEMPLATE = """#!/usr/bin/env python3
\"\"\"Plot the frontier stored in {csv_name}.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.reader(Path({csv_path!r}).open()))
header, data = rows[0], [[float(v) for v in row] for row in rows[1:]]
xs = [row[0] for row in data]
ys = [row[1] for row in data]
fig, ax = plt.subplots()
ax.plot(xs, ys, marker="o")
ax.set_xlabel(header[0])
ax.set_ylabel(header[1])
ax.set_title("Rate frontier ({csv_name})")
ax.grid(True, alpha=0.3)
out = Path({csv_path!r}).with_suffix(".png")
fig.savefig(out, dpi=150, bbox_inches="tight")
print(f"wrote {{out}}")
"""


def cmd_region(args) -> int:
    started = time.monotonic()
    channel = load_channel(args.channel)
    config = _load_config(args.config)
    bound = _BOUND_ALIASES[args.bound]
    region = assemble_region(channel, bound, config)
    plane = tuple(p.strip() for p in args.plane.split(","))
    if len(plane) != 2:
        raise ValueError(f"--plane needs exactly two coordinates, got {args.plane!r}")
    fixed = {c: 0.0 for c in region.coords if c not in plane}
    for name, value in _parse_fix(args.fix).items():
        if name in plane:
            raise ValueError(f"cannot fix plane coordinate {name!r}")
        if name not in fixed:
            raise ValueError(f"unknown coordinate {name!r}; region has {region.coords}")
        fixed[name] = value

    samples = frontier_sweep(region, plane, fixed=fixed, resolution=args.resolution)
    points = frontier_points(samples)

    out = pathlib.Path(args.out)
    lines = [",".join(plane)]
    for row in points:
        lines.append(",".join(_g9(v) for v in row))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")

    witnesses = [{
        "theta": s.theta,
        "direction": [float(d) for d in s.direction],
        "point": [float(v) for v in s.point],
        "support_value": float(s.value),
        "mix": [{
            "weight": weight,
            "point": region.hull_points[j].tolist(),
            "scheme": region.provenance[region.hull_sources[j]],
        } for weight, j in s.mix],
    } for s in samples]
    witness_path = out.with_name(out.name + ".witness.json")
    _write_json(witness_path, {
        "plane": list(plane),
        "fixed": fixed,
        "bound": args.bound,
        "witnesses": witnesses,
    })

    outputs = {"frontier_csv": str(out), "witnesses": str(witness_path)}
    if args.emit_plot:
        plot_path = out.with_name(out.name + ".plot.py")
        plot_path.write_text(
            _PLOT_TEMPLATE.format(csv_path=str(out), csv_name=out.name),
            encoding="utf-8",
        )
        outputs["plot_script"] = str(plot_path)

    manifest_path = out.with_name(out.name + ".manifest.json")
    manifest = _manifest(
        "region", sys.argv[1:], started, [config.seed], outputs,
        channel_path=args.channel, config_path=args.config,
        config_doc=config.to_dict(),
    )
    # schemes visited, empty pieces dropped, degradedness, hull fallback
    manifest["region_info"] = region.info
    _write_json(manifest_path, manifest)
    _print_json({
        "bound": args.bound,
        "plane": list(plane),
        "frontier_points": len(points),
        "pieces": len(region.pieces),
        "outputs": {**outputs, "manifest": str(manifest_path)},
    })
    return 0


def cmd_check_degraded(args) -> int:
    started = time.monotonic()
    channel = load_channel(args.channel)
    physical = check_physically_degraded(channel, tol=args.tol)
    if physical.verdict == "physically-degraded":
        result = physical
    else:
        result = check_stochastically_degraded(channel, tol=args.tol)
    doc = {
        "verdict": result.verdict,
        "residual": result.residual,
        "physical_residual": physical.residual,
        "tol": args.tol,
        "witness": None if result.witness is None else
                   np.asarray(result.witness).tolist(),
    }
    if args.out:
        _write_json(args.out, doc)
        manifest_path = pathlib.Path(args.out).with_suffix(".manifest.json")
        _write_json(manifest_path, _manifest(
            "check-degraded", sys.argv[1:], started, [],
            {"verdict_json": str(args.out)}, channel_path=args.channel,
        ))
    _print_json(doc)
    return 0


def cmd_secrecy_capacity(args) -> int:
    started = time.monotonic()
    channel = load_channel(args.channel)
    config = _load_config(args.config)
    variant = "degraded" if args.degraded else "general"
    value, scheme = maximize_secrecy_capacity(channel, r0=args.r0,
                                              config=config, variant=variant)
    doc = {
        "value": value,
        "r0": args.r0,
        "variant": variant,
        "config": config.to_dict(),
        "witness": scheme_to_dict(scheme),
    }
    if args.out:
        _write_json(args.out, doc)
        manifest_path = pathlib.Path(args.out).with_suffix(".manifest.json")
        _write_json(manifest_path, _manifest(
            "secrecy-capacity", sys.argv[1:], started, [config.seed],
            {"result_json": str(args.out)}, channel_path=args.channel,
            config_path=args.config, config_doc=config.to_dict(),
        ))
    _print_json(doc)
    return 0


def cmd_simulate(args) -> int:
    started = time.monotonic()
    channel = load_channel(args.channel)
    doc = _load_json(args.sim_config)
    if not isinstance(doc, dict):
        raise ValueError("simulation config must be a JSON object")
    missing = [k for k in _SIM_KEYS if k not in doc]
    extra = [k for k in doc if k not in _SIM_KEYS]
    if missing:
        raise ValueError(f"simulation config is missing keys {missing}")
    if extra:
        raise ValueError(f"simulation config has unknown keys {extra}")
    reports, aggregate = simulate(
        channel, n=doc["n"], M0=doc["M0"], M1=doc["M1"], M2=doc["M2"],
        J1=doc["J1"], J2=doc["J2"], input_dist=doc["input_dist"],
        seeds=doc["seeds"],
    )
    result = {"reports": [r.to_dict() for r in reports], "aggregate": aggregate}
    outputs = {}
    if args.out:
        _write_json(args.out, result)
        outputs["report_json"] = str(args.out)
    if args.csv:
        lines = ["seed,error_probability,equivocation_user2,equivocation_user1,R0,R1,R2"]
        for r in reports:
            cells = [str(r.seed), _g9(r.error_probability),
                     _g9(r.equivocation_user2), _g9(r.equivocation_user1)]
            cells.extend(_g9(v) for v in r.rates)
            lines.append(",".join(cells))
        pathlib.Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs["report_csv"] = str(args.csv)
    if outputs:
        anchor = pathlib.Path(args.out or args.csv)
        manifest_path = anchor.with_name(anchor.name + ".manifest.json")
        _write_json(manifest_path, _manifest(
            "simulate", sys.argv[1:], started, doc["seeds"], outputs,
            channel_path=args.channel, config_path=args.sim_config,
        ))
    _print_json(result)
    return 0


def _parse_names(blob: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in blob.split(","))
    if any(not n for n in names):
        raise ValueError(f"empty variable name in {blob!r}")
    return names


def _evaluate_query(joint, query: str) -> float:
    """Evaluate "I(A;B|C)" or "H(A|C)" against an assembled joint.

    Variable groups are comma lists. Asking for the information a group
    shares with itself returns that group's entropy.
    """
    m = re.fullmatch(r"\s*([IH])\s*\((.*)\)\s*", query)
    if not m:
        raise ValueError(f"cannot parse query {query!r}")
    kind, body = m.group(1), m.group(2)
    head, bar, tail = body.partition("|")
    given = _parse_names(tail) if bar else ()
    if kind == "H":
        return entropy(joint, _parse_names(head), given=given)
    sides = head.split(";")
    if len(sides) != 2:
        raise ValueError(f"I(...) needs exactly two groups, got {head!r}")
    a, b = _parse_names(sides[0]), _parse_names(sides[1])
    if set(a) == set(b):
        return entropy(joint, a, given=given)
    return mutual_information(joint, a, b, given=given)


def cmd_info(args) -> int:
    channel = load_channel(args.channel)
    doc = _load_json(args.scheme)
    scheme = scheme_from_dict(doc)
    joint = _SCHEME_FIELDS[doc["kind"]][2](scheme, channel)
    value = _evaluate_query(joint, args.query)
    sys.stdout.write(_g9(value) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmacsec",
        description="Rate regions, secrecy capacities, and exact binning "
                    "simulations for two-sender channels with an eavesdropping "
                    "peer at each sender.",
    )
    parser.add_argument("--version", action="version", version=f"gmacsec {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    p = sub.add_parser("region", help="compute a rate-region frontier slice")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--bound", required=True, choices=sorted(_BOUND_ALIASES),
                   help="which bound to assemble")
    p.add_argument("--config", default=None, help="search-config JSON file")
    p.add_argument("--plane", default="R0,R1",
                   help="two coordinates for the frontier plane, e.g. R0,R1")
    p.add_argument("--fix", nargs="*", metavar="NAME=VALUE",
                   help="values for coordinates outside the plane (default 0)")
    p.add_argument("--resolution", type=int, default=33,
                   help="number of support directions to sweep")
    p.add_argument("--out", required=True, help="frontier CSV path")
    p.add_argument("--emit-plot", action="store_true",
                   help="also write a plotting script next to the CSV")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("check-degraded", help="degradedness verdict for a channel")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out", default=None, help="write the verdict JSON here too")
    p.set_defaults(func=cmd_check_degraded)

    p = sub.add_parser("secrecy-capacity",
                       help="search for the best confidential rate")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--r0", type=float, default=0.0, help="common rate to sustain")
    p.add_argument("--config", default=None, help="search-config JSON file")
    p.add_argument("--degraded", action="store_true",
                   help="use the degraded-channel form (no auxiliary)")
    p.add_argument("--out", default=None, help="write the result JSON here too")
    p.set_defaults(func=cmd_secrecy_capacity)

    p = sub.add_parser("simulate", help="exact random-binning simulation")
    p.add_argument("sim_config", help="simulation config JSON file")
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--csv", default=None, help="per-seed report CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("info", help="evaluate one information quantity")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    p.add_argument("--query", required=True,
                   help='e.g. "I(U;Y|X2,Q)" or "H(U|Q)"')
    p.set_defaults(func=cmd_info)
    return parser


def _fail(exc: BaseException, code: int) -> int:
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
    }) + "\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except _GUARD_ERRORS as exc:
        return _fail(exc, 3)
    except _INTERNAL_ERRORS as exc:
        return _fail(exc, 4)
    except (GmacError, ValueError, KeyError, TypeError, OSError) as exc:
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
