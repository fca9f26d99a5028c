"""Command-line surface: regions, degradedness checks, capacity search,
exact simulation, and ad-hoc information queries over files.

Every command that writes an output file also writes a manifest sidecar,
named by appending .manifest.json to that file's name, with content digests
of its inputs, the tool version, and the seeds in play, so any output can
be regenerated and checked byte for byte. Errors leave a machine-readable
JSON object on stderr and exit with a stable code: 2 for input problems, 3
for blown resource guards, 4 for internal invariant violations. A warning,
such as the NotDegradedWarning of a degraded-form command on a channel
that is not degraded, leaves one JSON object on stderr too, with no exit
code of its own.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import pathlib
import sys
import time
import warnings
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import __version__
from .channel import (
    _stochastically_degraded,
    check_physically_degraded,
    load_channel,
    parse_channel,
)
from .errors import (
    EnumerationTooLarge,
    GmacError,
    GridTooLarge,
    InternalError,
    SolverStall,
    Unbounded,
    VertexEnumerationOverflow,
)

# Each command imports the layers it runs when it runs, so `simulate`,
# `info` and `check-degraded` never load the region and search stack.

_BOUND_ALIASES = {
    "inner1": "inner-one-set",
    "outer1": "outer-one-set",
    "secrecy1": "secrecy-one-set",
    "degraded": "degraded",
    "two-set": "two-set",
    "secrecy2": "secrecy-two-set",
}

_GUARD_ERRORS = (GridTooLarge, EnumerationTooLarge, VertexEnumerationOverflow)
_INTERNAL_ERRORS = (InternalError, SolverStall, Unbounded)

_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_SIM_KEYS = ("n", "M0", "M1", "M2", "J1", "J2", "input_dist", "seeds")


def _read_input(path) -> bytes | None:
    """An input file's bytes, read once: a command parses these bytes and
    its manifest digests the same bytes, so a file rewritten during a run
    cannot lend its digest to a result it did not produce."""
    return None if path is None else pathlib.Path(path).read_bytes()


def _parse_json(blob: bytes):
    return json.loads(blob.decode("utf-8"))


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _digest_doc(doc) -> str:
    return _digest(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def _float_text(value) -> str:
    text = float.__repr__(value)
    return _FLOAT_SPECIALS.get(text, text)


_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(doc) -> str:
    """The text of json.dumps(doc, indent=2), byte for byte, for what the
    commands build: dicts with str keys, lists, tuples, and scalars of
    exact type str, int, float, bool or None. Anything else, such as an
    np.float64 or an int key, raises TypeError naming its type.

    With indent, json runs its pure-Python encoder, one generator step per
    token. Here each container's text is one str.join, and a container met
    again at the same depth reuses its text: a witness file repeats each
    winning scheme's document in every direction whose mix uses it. The
    memo is keyed by (id, depth), since the indent depends on the depth,
    and it lives for one call, while doc keeps every id alive.
    """
    return _text(doc, 0, {})


def _text(value, depth, memo) -> str:
    # a module-level function, not a closure over memo: a recursive closure
    # is a reference cycle, which would keep each call's memo alive until
    # the cyclic collector ran
    scalar = _SCALARS.get
    if (write := scalar(type(value))) is not None:
        return write(value)
    if not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        "is not JSON serializable")
    key = (id(value), depth)
    done = memo.get(key)
    if done is not None:
        return done
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    outer = "\n" + "  " * depth
    inner = outer + "  "
    depth += 1
    if isinstance(value, dict):
        items = [
            _json_string(k) + ": "
            + (write(v) if (write := scalar(type(v))) else _text(v, depth, memo))
            for k, v in value.items()]
        opening, closing = "{", "}"
    else:
        items = [write(v) if (write := scalar(type(v))) else _text(v, depth, memo)
                 for v in value]
        opening, closing = "[", "]"
    done = memo[key] = opening + inner + ("," + inner).join(items) + outer + closing
    return done


def _print_json(doc) -> None:
    sys.stdout.write(_json_text(doc) + "\n")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc) + "\n")


def _manifest_path(out) -> pathlib.Path:
    """Where the manifest of output file out goes: <out name>.manifest.json."""
    out = pathlib.Path(out)
    return out.with_name(out.name + ".manifest.json")


def _manifest(command, argv, started, seeds, outputs, channel=None,
              config=None, config_doc=None) -> dict:
    """The manifest of one run; channel and config are the input bytes the
    run parsed, config_doc the configuration used when no file gave one."""
    doc = {
        "command": command,
        "tool_version": __version__,
        "channel_digest": None if channel is None else _digest(channel),
        "config_digest": (
            _digest(config) if config is not None
            else _digest_doc(config_doc) if config_doc is not None
            else None
        ),
        "seeds": list(seeds),
        "duration_seconds": time.monotonic() - started,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(argv),
        "outputs": outputs,
    }
    return doc


def _load_config(blob) -> SearchConfig:
    from .optimizer import SearchConfig

    if blob is None:
        return SearchConfig()
    return SearchConfig.from_dict(_parse_json(blob))


def _g9(value: float) -> str:
    # adding 0.0 folds IEEE negative zero into plain zero before printing
    return "%.9g" % (float(value) + 0.0)


def _parse_fix(pairs) -> dict:
    fixed = {}
    for item in pairs or ():
        name, sep, raw = item.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"--fix expects NAME=VALUE, got {item!r}")
        fixed[name.strip()] = float(raw)
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
    from .optimizer import _BOUND_TABLES, assemble_region
    from .regions import _check_resolution, check_slice, frontier_points, frontier_sweep

    started = time.monotonic()
    channel_bytes = _read_input(args.channel)
    channel = parse_channel(channel_bytes, args.channel)
    config_bytes = _read_input(args.config)
    config = _load_config(config_bytes)
    bound = _BOUND_ALIASES[args.bound]
    # the slice, against the bound's coordinates, and the resolution are
    # checked before any search
    coords = _BOUND_TABLES[bound].coords
    plane = tuple(p.strip() for p in args.plane.split(","))
    fixed = {c: 0.0 for c in coords if c not in plane}
    fixed = check_slice(coords, plane, {**fixed, **_parse_fix(args.fix)})
    _check_resolution(args.resolution)
    region = assemble_region(channel, bound, config)

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

    manifest_path = _manifest_path(out)
    manifest = _manifest(
        "region", args.argv, started, [config.seed], outputs,
        channel=channel_bytes, config=config_bytes, config_doc=config.to_dict(),
    )
    # schemes visited, empty pieces dropped, degradedness
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
    channel_bytes = _read_input(args.channel)
    channel = parse_channel(channel_bytes, args.channel)
    physical = check_physically_degraded(channel, tol=args.tol)
    if physical.verdict == "physically-degraded":
        result = physical
    else:
        # the conditioning kernel is the stochastic check's second candidate
        result = _stochastically_degraded(channel, args.tol, physical.witness)
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
        _write_json(_manifest_path(args.out), _manifest(
            "check-degraded", args.argv, started, [],
            {"verdict_json": str(args.out)}, channel=channel_bytes,
        ))
    _print_json(doc)
    return 0


def cmd_secrecy_capacity(args) -> int:
    from .infotheory import scheme_to_dict
    from .optimizer import _degradedness, maximize_secrecy_capacity

    started = time.monotonic()
    channel_bytes = _read_input(args.channel)
    channel = parse_channel(channel_bytes, args.channel)
    config_bytes = _read_input(args.config)
    config = _load_config(config_bytes)
    variant = "degraded" if args.degraded else "general"
    # the degraded form holds only on a degraded channel; warn, and record
    # the verdict as region does
    certificate = _degradedness(channel) if args.degraded else None
    value, scheme = maximize_secrecy_capacity(channel, r0=args.r0,
                                              config=config, variant=variant)
    doc = {
        "value": value,
        "r0": args.r0,
        "variant": variant,
        "config": config.to_dict(),
        "witness": scheme_to_dict(scheme),
    }
    if certificate is not None:
        doc["degradedness_verdict"] = certificate.verdict
        doc["degradedness_residual"] = certificate.residual
    if args.out:
        _write_json(args.out, doc)
        _write_json(_manifest_path(args.out), _manifest(
            "secrecy-capacity", args.argv, started, [config.seed],
            {"result_json": str(args.out)}, channel=channel_bytes,
            config=config_bytes, config_doc=config.to_dict(),
        ))
    _print_json(doc)
    return 0


def cmd_simulate(args) -> int:
    from .wiretap_sim import simulate

    started = time.monotonic()
    channel_bytes = _read_input(args.channel)
    channel = parse_channel(channel_bytes, args.channel)
    sim_bytes = _read_input(args.sim_config)
    doc = _parse_json(sim_bytes)
    if not isinstance(doc, dict):
        raise ValueError("simulation config must be a JSON object")
    missing = [k for k in _SIM_KEYS if k not in doc]
    extra = [k for k in doc if k not in _SIM_KEYS]
    if missing:
        raise ValueError(f"simulation config is missing keys {missing}")
    if extra:
        raise ValueError(f"simulation config has unknown keys {extra}")
    if not isinstance(doc["seeds"], list):
        raise ValueError(f"simulation config key seeds must be a list, got {doc['seeds']!r}")
    if not (isinstance(doc["input_dist"], list) and len(doc["input_dist"]) == 2):
        raise ValueError("simulation config key input_dist must be a list of two "
                         f"distributions, got {doc['input_dist']!r}")
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
        _write_json(_manifest_path(args.out or args.csv), _manifest(
            "simulate", args.argv, started, doc["seeds"], outputs,
            channel=channel_bytes, config=sim_bytes,
        ))
    _print_json(result)
    return 0


def _evaluate_query(joint, query: str) -> float:
    """Evaluate "I(A;B|C)" or "H(A|C)" (see parse_query) against the
    joint of one scheme, a stack of one; the information a group shares
    with itself is that group's entropy."""
    from .infotheory import parse_query, stacked_entropy, stacked_mutual_information

    letter, a, *rest = parse_query(query)
    if letter == "H" or set(a) == set(rest[0]):
        value = stacked_entropy(joint, a, given=rest[-1])
    else:
        value = stacked_mutual_information(joint, a, *rest)
    return float(value[0])


def cmd_info(args) -> int:
    from .infotheory import _assemble_joint, scheme_from_dict

    channel = load_channel(args.channel)
    doc = _parse_json(_read_input(args.scheme))
    scheme = scheme_from_dict(doc)
    joint = _assemble_joint(scheme, channel)
    value = _evaluate_query(joint, args.query)
    sys.stdout.write(_g9(value) + "\n")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
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
                   help="use the degraded-channel form (no auxiliary); the channel's "
                        "degradedness is checked and recorded")
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


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning while a command runs: the warning as one JSON
    object on stderr, like an error's, in place of Python's line, which
    names an install path and a source line."""
    sys.stderr.write(json.dumps({
        "warning": category.__name__,
        "message": str(message),
    }) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    # the manifests record the argv parsed here, not the host's
    args.argv = argv
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except _GUARD_ERRORS as exc:
        return _fail(exc, 3)
    except _INTERNAL_ERRORS as exc:
        return _fail(exc, 4)
    except (GmacError, ValueError, KeyError, TypeError, OSError) as exc:
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
