"""Byte gate over every bound and both secrecy-capacity forms.

tests/data/golden_digests.json holds SHA-256 digests of what the CLI
writes: for `region`, the frontier CSV, the witness file and the manifest's
region_info (as json.dumps(..., sort_keys=True)) of each bound on four
fixture channels; for `secrecy-capacity`, the float.hex of the value, a
digest of the witness scheme and a digest of the whole --out file; for
`simulate`, a digest of one pinned small --out report. The witness files
run to several KB each, so the gate keeps digests rather than the files.

Regenerate the data file, after a deliberate output change only, with

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile
import warnings

import pytest

from gmacsec import NotDegradedWarning, fixtures as fx
from gmacsec.channel import save_channel
from gmacsec.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "golden_digests.json"
CHANNELS = ("binary_degraded", "clean_mac", "leaky_wiretap", "identity_copy")
BOUNDS = ("inner1", "outer1", "secrecy1", "degraded", "two-set", "secrecy2")
VARIANTS = ("general", "degraded")
REGION_CONFIG = {"strategy": "random", "sample_count": 4, "cardinalities": [2, 2, 2],
                 "seed": 7}
CAPACITY_CONFIG = {"strategy": "grid", "grid_resolution": 3, "cardinalities": [2, 2, 1]}
CAPACITY_R0 = "0.1"
SIMULATE_CHANNEL = "clean_mac"
SIMULATE_CONFIG = {"n": 6, "M0": 2, "M1": 2, "M2": 2, "J1": 2, "J2": 2,
                   "input_dist": [[0.5, 0.5], [0.25, 0.75]], "seeds": [3, 4]}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _inputs(directory: pathlib.Path, channel: str):
    path = directory / f"{channel}.json"
    save_channel(getattr(fx, channel)(), path)
    configs = []
    for name, doc in (("region", REGION_CONFIG), ("capacity", CAPACITY_CONFIG)):
        configs.append(directory / f"{name}.json")
        configs[-1].write_text(json.dumps(doc), encoding="utf-8")
    return path, *configs


def region_digests(directory: pathlib.Path, channel: str, bound: str) -> dict:
    path, config, _ = _inputs(directory, channel)
    plane = "R1,R2" if bound in ("two-set", "secrecy2") else "R0,R1"
    out = directory / "frontier.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        rc = main(["region", str(path), "--bound", bound, "--config", str(config),
                   "--resolution", "9", "--plane", plane, "--out", str(out)])
    assert rc == 0
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    return {
        "csv": _sha(out.read_bytes()),
        "witness": _sha(out.with_name(out.name + ".witness.json").read_bytes()),
        "region_info": _sha(json.dumps(manifest["region_info"], sort_keys=True).encode()),
    }


def capacity_digests(directory: pathlib.Path, channel: str, variant: str) -> dict:
    path, _, config = _inputs(directory, channel)
    out = directory / "capacity.json"
    argv = ["secrecy-capacity", str(path), "--config", str(config),
            "--r0", CAPACITY_R0, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        rc = main(argv + ["--degraded"] if variant == "degraded" else argv)
    assert rc == 0
    doc = json.loads(out.read_text())
    return {
        "value": float.hex(doc["value"]),
        "witness": _sha(json.dumps(doc["witness"], sort_keys=True).encode()),
        "file": _sha(out.read_bytes()),
    }


def simulate_digest(directory: pathlib.Path) -> str:
    path = directory / f"{SIMULATE_CHANNEL}.json"
    save_channel(getattr(fx, SIMULATE_CHANNEL)(), path)
    config = directory / "simulate.json"
    config.write_text(json.dumps(SIMULATE_CONFIG), encoding="utf-8")
    out = directory / "report.json"
    assert main(["simulate", str(config), "--channel", str(path), "--out", str(out)]) == 0
    return _sha(out.read_bytes())


def _golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("channel", CHANNELS)
def test_region_digests(tmp_path, capsys, channel, bound):
    got = region_digests(tmp_path, channel, bound)
    assert got == _golden()["region"][f"{channel}/{bound}"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("channel", CHANNELS)
def test_secrecy_capacity_digests(tmp_path, capsys, channel, variant):
    got = capacity_digests(tmp_path, channel, variant)
    assert got == _golden()["secrecy_capacity"][f"{channel}/{variant}"]


def test_simulate_digest(tmp_path, capsys):
    assert simulate_digest(tmp_path) == _golden()["simulate"][SIMULATE_CHANNEL]


def _record() -> dict:
    doc = {"region": {}, "secrecy_capacity": {}, "simulate": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for channel in CHANNELS:
            for bound in BOUNDS:
                doc["region"][f"{channel}/{bound}"] = region_digests(tmp, channel, bound)
            for variant in VARIANTS:
                doc["secrecy_capacity"][f"{channel}/{variant}"] = capacity_digests(
                    tmp, channel, variant)
        doc["simulate"][SIMULATE_CHANNEL] = simulate_digest(tmp)
    return doc


if __name__ == "__main__":
    stdout = sys.stdout
    sys.stdout = sys.stderr                   # the CLI's JSON summaries
    try:
        doc = _record()
    finally:
        sys.stdout = stdout
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
