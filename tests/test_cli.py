import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gmacsec import (
    NotDegradedWarning,
    SolverStall,
    fixtures as fx,
    scheme_from_dict,
    scheme_to_dict,
)
from gmacsec.channel import load_channel, save_channel, validate_channel
from gmacsec import optimizer
from gmacsec.cli import _BOUND_ALIASES, _g9, main
from gmacsec.infotheory import _SCHEME_FIELDS
from gmacsec.optimizer import _BOUND_TABLES, SearchConfig
from gmacsec.regions import bound_pieces
from references import piece_contains

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def channel_files(tmp_path_factory):
    return fx.write_fixture_files(tmp_path_factory.mktemp("channels"))


@pytest.fixture(scope="module")
def grid_config(tmp_path_factory):
    """A small exhaustive search that still finds the clean-channel optima."""
    path = tmp_path_factory.mktemp("configs") / "grid.json"
    path.write_text(json.dumps({"strategy": "grid",
                                "cardinalities": [1, 2, 1]}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def one_set_scheme_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("schemes") / "one_set.json"
    doc = scheme_to_dict(fx.uniform_u_equals_x1(fx.clean_mac()))
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _stderr_error(capsys):
    err = capsys.readouterr().err
    return json.loads(err.strip().splitlines()[-1])


# the layers that only `region` and `secrecy-capacity` run
_LAZY_LAYERS = ("gmacsec.regions", "gmacsec.optimizer", "gmacsec.one_set",
                "gmacsec.two_set")


def _run_python(code):
    """Run code in a fresh interpreter on this checkout; returns its stdout."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestTopLevel:
    def test_import_loads_no_scipy_solver_or_hull(self):
        # scipy.optimize and scipy.spatial are imported on the first LP or hull
        code = ("import sys, gmacsec.cli; "
                "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial') "
                "if m in sys.modules))")
        assert _run_python(code) == "[]"

    def test_import_loads_no_region_search_or_simulation_layer(self):
        code = ("import sys, gmacsec.cli; "
                "print(sorted(m for m in sys.modules if m in {mods!r}))"
                .format(mods=_LAZY_LAYERS + ("gmacsec.wiretap_sim", "concurrent.futures")))
        assert _run_python(code) == "[]"

    def test_simulate_info_and_check_degraded_load_no_region_or_search_layer(
            self, channel_files, one_set_scheme_file, tmp_path):
        sim = _write_json(tmp_path / "sim.json", TestSimulate.SIM)
        channel = str(channel_files["binary_degraded"])
        commands = [
            ["simulate", sim, "--channel", channel, "--out", str(tmp_path / "r.json")],
            ["info", str(channel_files["clean_mac"]), "--scheme", one_set_scheme_file,
             "--query", "I(U;Y|X2,Q)"],
            ["check-degraded", channel, "--out", str(tmp_path / "v.json")],
        ]
        code = ("import contextlib, io, sys\n"
                "from gmacsec.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [main(argv) for argv in {commands!r}]\n"
                "print(codes, sorted(m for m in sys.modules if m in {mods!r}))\n"
                .format(commands=commands, mods=_LAZY_LAYERS))
        assert _run_python(code) == "[0, 0, 0] []"

    def test_region_queries_need_no_scipy_optimize(self):
        # assembling, sweeping and membership solve no LP, so they run with
        # scipy.optimize unimportable
        code = ("import sys; sys.modules['scipy.optimize'] = None\n"
                "from gmacsec import fixtures, frontier_sweep, region_contains\n"
                "from gmacsec.optimizer import SearchConfig, assemble_region\n"
                "region = assemble_region(fixtures.binary_degraded(), 'inner-one-set',\n"
                "                         SearchConfig(strategy='random', sample_count=4))\n"
                "frontier_sweep(region, ('R0', 'R1'), fixed={'Re': 0.05}, resolution=9)\n"
                "print(region_contains(region, region.hull_points.mean(axis=0)))\n")
        assert _run_python(code) == "True"

    def test_version_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gmacsec" in capsys.readouterr().out

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "COMMAND" in capsys.readouterr().err


class TestRegion:
    def test_frontier_csv_and_sidecars(self, channel_files, grid_config,
                                       tmp_path, capsys):
        out = tmp_path / "frontier.csv"
        rc = main(["region", str(channel_files["clean_mac"]),
                   "--bound", "secrecy1", "--resolution", "9",
                   "--config", grid_config, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "R0,R1"
        assert len(lines) > 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["frontier_points"] == len(lines) - 1

        witness = json.loads((tmp_path / "frontier.csv.witness.json").read_text())
        assert witness["bound"] == "secrecy1"
        assert witness["plane"] == ["R0", "R1"]
        assert all("direction" in w and w["mix"] for w in witness["witnesses"])
        assert all(set(entry) == {"weight", "point", "scheme"} and entry["scheme"]
                   for w in witness["witnesses"] for entry in w["mix"])

        manifest = json.loads((tmp_path / "frontier.csv.manifest.json").read_text())
        assert manifest["command"] == "region"
        assert len(manifest["channel_digest"]) == 64
        assert manifest["outputs"]["frontier_csv"] == str(out)

    def test_manifest_records_region_info(self, channel_files, tmp_path):
        cfg = _write_json(tmp_path / "cfg.json",
                          {"strategy": "random", "sample_count": 8})
        out = tmp_path / "degraded.csv"
        rc = main(["region", str(channel_files["binary_degraded"]),
                   "--bound", "degraded", "--resolution", "5",
                   "--config", cfg, "--out", str(out)])
        assert rc == 0
        info = json.loads((tmp_path / "degraded.csv.manifest.json")
                          .read_text())["region_info"]
        assert info["bound"] == "degraded"
        assert info["schemes_visited"] == 8
        assert info["empty_pieces_dropped"] == 0
        assert info["degradedness_verdict"] == "stochastically-degraded"
        assert info["degradedness_residual"] <= 1e-7
        assert info["config"]["sample_count"] == 8
        assert "hull_fallback" not in info

    def test_hull_fallback_reaches_the_manifest(self, channel_files,
                                                grid_config, tmp_path,
                                                monkeypatch):
        from scipy.spatial import QhullError

        from gmacsec import regions

        real = regions.ConvexHull
        calls = []

        def hull(points, *args, **kwargs):
            # fail convexify's pruning; later hulls (the slice) succeed
            calls.append(1)
            if len(calls) == 1:
                raise QhullError("QH6154 Qhull precision error: made up")
            return real(points, *args, **kwargs)

        monkeypatch.setattr(regions, "ConvexHull", hull)
        out = tmp_path / "fallback.csv"
        rc = main(["region", str(channel_files["clean_mac"]),
                   "--bound", "inner1", "--resolution", "5",
                   "--config", grid_config, "--out", str(out)])
        assert rc == 0
        info = json.loads((tmp_path / "fallback.csv.manifest.json")
                          .read_text())["region_info"]
        assert info["hull_fallback"].startswith("QH6154")

    def test_two_runs_byte_identical(self, channel_files, tmp_path):
        cfg = _write_json(tmp_path / "cfg.json",
                          {"strategy": "random", "sample_count": 40})
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            rc = main(["region", str(channel_files["binary_degraded"]),
                       "--bound", "inner1", "--plane", "R1,Re",
                       "--resolution", "9", "--config", cfg,
                       "--out", str(p)])
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        witnesses = [p.with_name(p.name + ".witness.json") for p in paths]
        assert witnesses[0].read_bytes() == witnesses[1].read_bytes()

    def test_fix_moves_the_slice(self, channel_files, grid_config, tmp_path):
        def frontier_r1(fix):
            out = tmp_path / f"fix_{fix}.csv"
            args = ["region", str(channel_files["clean_mac"]),
                    "--bound", "inner1", "--plane", "R1,Re",
                    "--resolution", "5", "--config", grid_config,
                    "--out", str(out)]
            if fix is not None:
                args += ["--fix", f"R0={fix}"]
            assert main(args) == 0
            rows = [tuple(map(float, line.split(",")))
                    for line in out.read_text().splitlines()[1:]]
            return max(r for r, _ in rows)

        # the clean channel obeys R0 + R1 <= 2, so raising R0 must cost R1
        assert frontier_r1(None) == pytest.approx(1.0, abs=1e-9)
        assert frontier_r1(1.5) == pytest.approx(0.5, abs=1e-9)

    def test_fix_validation(self, channel_files, grid_config, tmp_path,
                            capsys, monkeypatch):
        import gmacsec.optimizer as optimizer

        def no_search(*args, **kwargs):
            raise AssertionError("assemble_region called")

        # a bad slice or resolution exits 2 before any scheme is searched
        monkeypatch.setattr(optimizer, "assemble_region", no_search)
        base = ["region", str(channel_files["clean_mac"]), "--bound", "inner1",
                "--config", grid_config, "--out", str(tmp_path / "x.csv")]
        for extra in (["--fix", "R0=0.1"], ["--fix", "Rbogus=0.1"], ["--fix", "Re"],
                      ["--fix", "Re=nan"], ["--plane", "R0"], ["--plane", "R0,Rx"],
                      ["--plane", "R1,R1"], ["--resolution", "1"],
                      ["--resolution", "-3"]):
            assert main(base + extra) == 2
            error = _stderr_error(capsys)
            assert error["error"] == "ValueError"
            if extra[0] == "--resolution":
                assert error["message"] == "resolution must be at least 2"
        assert not (tmp_path / "x.csv").exists()

    def test_emit_plot_writes_script(self, channel_files, grid_config,
                                     tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["region", str(channel_files["clean_mac"]),
                   "--bound", "secrecy1", "--resolution", "5",
                   "--config", grid_config, "--out", str(out), "--emit-plot"])
        assert rc == 0
        script = (tmp_path / "f.csv.plot.py").read_text()
        assert "matplotlib" in script
        assert "f.csv" in script

    def test_malformed_channel_is_an_input_error(self, tmp_path, capsys):
        bad = _write_json(tmp_path / "bad.json", {"p": []})
        rc = main(["region", bad, "--bound", "inner1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert _stderr_error(capsys)["error"] == "DimensionMismatch"

    @pytest.mark.parametrize("command", ["region", "secrecy-capacity"])
    def test_nan_channel_is_an_input_error(self, tmp_path, capsys, command):
        bad = tmp_path / "nan.json"
        save_channel(fx.binary_degraded(), bad)
        doc = json.loads(bad.read_text())
        doc["p"][1][0][0][0][0] = float("nan")      # json writes the NaN literal
        _write_json(bad, doc)
        out = tmp_path / "x.csv"
        extra = ["--bound", "inner1", "--out", str(out)] if command == "region" else []
        rc = main([command, str(bad), *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.strip().splitlines()[-1])
        assert error["error"] == "RowSumViolation"
        assert not out.exists()

    def test_internal_failure_is_code_four(self, channel_files, tmp_path,
                                           monkeypatch, capsys):
        import gmacsec.optimizer as optimizer

        def explode(*args, **kwargs):
            raise SolverStall("stalled on purpose")

        monkeypatch.setattr(optimizer, "assemble_region", explode)
        rc = main(["region", str(channel_files["clean_mac"]),
                   "--bound", "inner1", "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert _stderr_error(capsys)["error"] == "SolverStall"


def verify_witnesses(channel_path, bound, csv_path):
    """Check a region run's witness file against fresh information terms.

    Every mix entry's point must lie in a piece rebuilt from its scheme,
    the weights must be positive and sum to one, the weighted points must
    give the witness point with the fixed values, and every CSV row must
    print as some witness point. Returns the number of witnesses.
    """
    channel = load_channel(channel_path)
    table = _BOUND_TABLES[_BOUND_ALIASES[bound]]
    doc = json.loads(pathlib.Path(f"{csv_path}.witness.json").read_text())
    plane, fixed = doc["plane"], doc["fixed"]
    pieces = {}                                # scheme JSON -> its pieces
    printed = set()
    for w in doc["witnesses"]:
        full = [w["point"][plane.index(c)] if c in plane else fixed[c]
                for c in table.coords]
        weights = np.array([entry["weight"] for entry in w["mix"]])
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        got = weights @ np.array([entry["point"] for entry in w["mix"]])
        np.testing.assert_allclose(got, full, rtol=0.0, atol=1e-9)
        for entry in w["mix"]:
            key = json.dumps(entry["scheme"], sort_keys=True)
            if key not in pieces:
                scheme = scheme_from_dict(entry["scheme"])
                fields = _SCHEME_FIELDS[entry["scheme"]["kind"]].fields
                terms = table.terms([getattr(scheme, f)[None] for f in fields], channel)
                pieces[key] = bound_pieces(
                    table, {name: float(col[0]) for name, col in terms.items()})
            assert any(piece_contains(p, entry["point"], tol=1e-9)
                       for p in pieces[key])
        printed.add(",".join("%.9g" % (v + 0.0) for v in w["point"]))
    rows = pathlib.Path(csv_path).read_text().splitlines()[1:]
    assert rows and set(rows) <= printed
    return len(doc["witnesses"])


class TestWitnesses:
    """Every frontier point is reproduced by its witness: a time-sharing mix
    of points, each in a piece of the scheme it names."""

    @pytest.mark.parametrize("bound, re_value", [
        ("inner1", "0.05"), ("inner1", "0"), ("outer1", "0.05"),
    ])
    def test_one_set_mixes(self, channel_files, tmp_path, bound, re_value):
        cfg = _write_json(tmp_path / "cfg.json",
                          {"strategy": "random", "sample_count": 8})
        out = tmp_path / "f.csv"
        rc = main(["region", str(channel_files["binary_degraded"]),
                   "--bound", bound, "--fix", f"Re={re_value}",
                   "--resolution", "17", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert verify_witnesses(channel_files["binary_degraded"], bound, out) == 17

    def test_two_set_mixes_off_the_origin(self, tmp_path):
        channel = tmp_path / "w2.json"
        save_channel(fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(1)),
                     channel)
        cfg = _write_json(tmp_path / "cfg.json", {
            "strategy": "random", "sample_count": 3, "cardinalities": [2, 2, 2]})
        out = tmp_path / "f.csv"
        rc = main(["region", str(channel), "--bound", "two-set", "--plane", "R1,R2",
                   "--fix", "R0=0.001", "R1e=0.001", "--resolution", "9",
                   "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert verify_witnesses(channel, "two-set", out) == 9


@pytest.fixture(scope="module")
def edge_inputs(tmp_path_factory):
    """(channel file, config file, GMAC_MAX_STATES) for each edge input."""
    d = tmp_path_factory.mktemp("edges")
    rng = np.random.default_rng(3)
    save_channel(fx.random_channel((1, 2, 2, 2, 2), rng), d / "one_x1.json")
    prob = fx.random_channel((2, 2, 3, 2, 2), rng).prob.copy()
    prob[:, :, 2] = 0.0            # no input reaches output letter 2
    prob /= prob.sum(axis=(2, 3, 4), keepdims=True)
    save_channel(validate_channel(prob, (2, 2, 3, 2, 2)), d / "unreached.json")
    save_channel(fx.clean_mac(), d / "clean.json")
    small = _write_json(d / "small.json", {"strategy": "random", "sample_count": 2,
                                           "cardinalities": [1, 2, 2]})
    grid2 = _write_json(d / "grid2.json", {"strategy": "grid", "grid_resolution": 2,
                                           "cardinalities": [1, 1, 1]})
    return {
        "one_x1": (d / "one_x1.json", small, None),
        "unreached_output": (d / "unreached.json", small, None),
        "grid_resolution_2": (d / "clean.json", grid2, None),
        "max_states_1": (d / "clean.json", small, "1"),
    }


class TestRegionEdgeInputs:
    @pytest.mark.filterwarnings("ignore::gmacsec.NotDegradedWarning")
    @pytest.mark.parametrize("case", ["one_x1", "unreached_output",
                                      "grid_resolution_2", "max_states_1"])
    @pytest.mark.parametrize("bound", ["inner1", "outer1", "secrecy1", "degraded",
                                       "two-set", "secrecy2"])
    def test_exit_code_and_error_object(self, edge_inputs, case, bound, tmp_path,
                                        capsys, monkeypatch):
        channel, config, max_states = edge_inputs[case]
        if max_states is not None:
            monkeypatch.setenv("GMAC_MAX_STATES", max_states)
        rc = main(["region", str(channel), "--bound", bound, "--config", config,
                   "--resolution", "3", "--out", str(tmp_path / "f.csv")])
        assert rc in (0, 2, 3, 4)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc:
            doc = json.loads(err.strip().splitlines()[-1])
            assert set(doc) == {"error", "message"}
        if case == "max_states_1":
            assert rc == 3


class TestRegionGolden:
    """Frontier CSVs must keep the bytes recorded in tests/data: 8 seeded
    random schemes on binary_degraded at resolution 17, which include an
    axis point that must print as exactly 0."""

    @pytest.mark.parametrize("golden, extra", [
        ("frontier_inner1.csv", ["--bound", "inner1"]),
        ("frontier_inner1_re0.05.csv", ["--bound", "inner1", "--fix", "Re=0.05"]),
        ("frontier_outer1.csv", ["--bound", "outer1"]),
    ])
    def test_frontier_bytes(self, channel_files, tmp_path, golden, extra):
        cfg = _write_json(tmp_path / "cfg.json",
                          {"strategy": "random", "sample_count": 8})
        out = tmp_path / golden
        rc = main(["region", str(channel_files["binary_degraded"]), *extra,
                   "--plane", "R0,R1", "--resolution", "17",
                   "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()


class TestSearchSettings:
    @pytest.mark.parametrize("key", ["seed", "sample_count", "grid_resolution",
                                     "refine_iterations"])
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_counts_and_seed_are_whole_numbers(self, channel_files, tmp_path, capsys,
                                               key, value):
        with pytest.raises(ValueError, match=key):
            SearchConfig(**{key: value})
        whole = SearchConfig(**{key: 3.0})
        assert type(getattr(whole, key)) is int and whole.to_dict()[key] == 3
        cfg = _write_json(tmp_path / "cfg.json",
                          {"strategy": "random", "sample_count": 2, key: value})
        channel = str(channel_files["binary_degraded"])
        for argv in (["region", channel, "--bound", "inner1", "--resolution", "3",
                      "--out", str(tmp_path / "f.csv")],
                     ["secrecy-capacity", channel]):
            assert main(argv + ["--config", cfg]) == 2
            error = _stderr_error(capsys)
            assert error["error"] == "ValueError" and key in error["message"]
        assert not (tmp_path / "f.csv").exists()

    def test_refine_step_is_not_a_boolean(self, channel_files, tmp_path, capsys):
        with pytest.raises(ValueError, match="refine_step"):
            SearchConfig(refine_step=True)
        cfg = _write_json(tmp_path / "cfg.json", {"strategy": "random+refine",
                                                  "sample_count": 2, "refine_step": True})
        assert main(["secrecy-capacity", str(channel_files["binary_degraded"]),
                     "--config", cfg]) == 2
        error = _stderr_error(capsys)
        assert error["error"] == "ValueError" and "refine_step" in error["message"]

    def test_regions_refuse_the_refine_strategy(self, channel_files, tmp_path, capsys):
        # a region has no single best scheme to refine, so the strategy is
        # refused rather than run as "random"
        cfg = _write_json(tmp_path / "cfg.json", {"strategy": "random+refine",
                                                  "sample_count": 2})
        channel = str(channel_files["binary_degraded"])
        out = tmp_path / "f.csv"
        assert main(["region", channel, "--bound", "inner1", "--resolution", "3",
                     "--config", cfg, "--out", str(out)]) == 2
        error = _stderr_error(capsys)
        assert error["error"] == "ValueError" and "random+refine" in error["message"]
        assert not out.exists()
        # the capacity search still refines
        assert main(["secrecy-capacity", channel, "--config", cfg]) == 0


class TestOneSpelling:
    """gmacsec info prints, for each term of every bound's table, the value
    the table gives the same scheme: the expression a table reads is the
    query a user types."""

    @pytest.mark.filterwarnings("ignore::gmacsec.NotDegradedWarning")
    @pytest.mark.parametrize("bound", sorted(_BOUND_ALIASES))
    def test_info_prints_each_table_term(self, tmp_path, capsys, bound):
        channel_path = tmp_path / "w2.json"
        channel = fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(1))
        save_channel(channel, channel_path)
        cfg = _write_json(tmp_path / "cfg.json", {
            "strategy": "random", "sample_count": 3, "cardinalities": [2, 2, 2]})
        table = _BOUND_TABLES[_BOUND_ALIASES[bound]]
        out = tmp_path / "f.csv"
        plane = "R1,R2" if "R2" in table.coords else "R0,R1"
        assert main(["region", str(channel_path), "--bound", bound, "--plane", plane,
                     "--resolution", "3", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.with_name(out.name + ".witness.json").read_text())
        scheme_doc = doc["witnesses"][0]["mix"][0]["scheme"]
        scheme_path = _write_json(tmp_path / "scheme.json", scheme_doc)
        values = table.scheme_terms(scheme_from_dict(scheme_doc), channel)
        assert list(values) == list(table.expressions)
        for name, expr in table.expressions.items():
            assert main(["info", str(channel_path), "--scheme", scheme_path,
                         "--query", expr]) == 0
            assert capsys.readouterr().out == _g9(values[name]) + "\n", (name, expr)


class TestManifestArgv:
    """A manifest records the argv main() parsed, not the host process's."""

    @pytest.mark.parametrize("command", ["region", "check-degraded",
                                         "secrecy-capacity", "simulate"])
    def test_manifest_records_the_parsed_argv(self, command, channel_files,
                                              grid_config, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(sys, "argv", ["host", "some", "extra", "host", "args"])
        channel = str(channel_files["binary_degraded"])
        if command == "region":
            out = tmp_path / "f.csv"
            cfg = _write_json(tmp_path / "cfg.json",
                              {"strategy": "random", "sample_count": 2})
            argv = ["region", channel, "--bound", "inner1", "--resolution", "3",
                    "--config", cfg, "--out", str(out)]
            manifest = tmp_path / "f.csv.manifest.json"
        elif command == "simulate":
            sim = _write_json(tmp_path / "sim.json", TestSimulate.SIM)
            argv = ["simulate", sim, "--channel", channel,
                    "--out", str(tmp_path / "r.json")]
            manifest = tmp_path / "r.json.manifest.json"
        else:
            argv = [command, channel, "--out", str(tmp_path / "o.json")]
            if command == "secrecy-capacity":
                argv += ["--config", grid_config]
            manifest = tmp_path / "o.json.manifest.json"
        assert main(argv) == 0
        assert json.loads(manifest.read_text())["argv"] == argv

    def test_outputs_sharing_a_stem_keep_their_own_manifests(
            self, channel_files, grid_config, tmp_path, capsys):
        # every command names its manifest <out name>.manifest.json
        channel = str(channel_files["binary_degraded"])
        assert main(["check-degraded", channel, "--out", str(tmp_path / "res.json")]) == 0
        assert main(["secrecy-capacity", channel, "--config", grid_config,
                     "--out", str(tmp_path / "res.txt")]) == 0
        for name, command in (("res.json", "check-degraded"),
                              ("res.txt", "secrecy-capacity")):
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["command"] == command


class TestCheckDegraded:
    def test_physical_verdict(self, channel_files, capsys):
        assert main(["check-degraded",
                     str(channel_files["binary_degraded"])]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "physically-degraded"
        assert doc["residual"] <= 1e-7
        assert doc["witness"] is not None

    def test_stochastic_verdict(self, channel_files, capsys):
        assert main(["check-degraded",
                     str(channel_files["identity_copy"])]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "stochastically-degraded"
        assert doc["physical_residual"] > 1e-7

    def test_negative_verdict_with_output_file(self, channel_files, tmp_path,
                                               capsys):
        out = tmp_path / "verdict.json"
        assert main(["check-degraded",
                     str(channel_files["noiseless_wiretapper"]),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "not-degraded"
        assert doc["witness"] is None
        assert json.loads(capsys.readouterr().out) == doc
        assert (tmp_path / "verdict.json.manifest.json").exists()


    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_is_checked_before_the_lp(self, channel_files, tol, monkeypatch,
                                          capsys):
        import gmacsec.channel as channel

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(channel, "linprog", no_lp)
        rc = main(["check-degraded", str(channel_files["noiseless_wiretapper"]),
                   "--tol", tol])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite number >= 0" in json.loads(captured.err)["message"]


class TestSecrecyCapacity:
    @pytest.mark.parametrize("r0", ["nan", "inf", "-0.1"])
    def test_common_rate_is_a_finite_nonnegative_number(self, channel_files,
                                                         capsys, r0):
        rc = main(["secrecy-capacity", str(channel_files["binary_degraded"]),
                   "--r0", r0])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite number >= 0" in json.loads(captured.err)["message"]

    def test_degraded_search_finds_the_gap(self, channel_files, tmp_path,
                                           capsys):
        out = tmp_path / "cap.json"
        rc = main(["secrecy-capacity", str(channel_files["binary_degraded"]),
                   "--degraded", "--out", str(out)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.21108145213899832, abs=0.02)
        assert doc["variant"] == "degraded"
        assert doc["witness"]["kind"] == "degraded"
        assert json.loads(out.read_text())["value"] == doc["value"]
        manifest = json.loads((tmp_path / "cap.json.manifest.json").read_text())
        assert manifest["command"] == "secrecy-capacity"
        assert manifest["config_digest"] is not None

    def test_degraded_search_checks_the_channel(self, channel_files, capsys, monkeypatch):
        calls = []
        check = optimizer.check_stochastically_degraded
        monkeypatch.setattr(optimizer, "check_stochastically_degraded",
                            lambda channel: calls.append(channel) or check(channel))
        with pytest.warns(NotDegradedWarning, match="residual 1.000e-01"):
            rc = main(["secrecy-capacity", str(channel_files["noiseless_wiretapper"]),
                       "--degraded"])
        assert rc == 0 and len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["degradedness_verdict"] == "not-degraded"
        assert doc["degradedness_residual"] == pytest.approx(0.1, rel=0.0, abs=1e-9)
        # a degraded channel is recorded without a warning; the general form
        # checks nothing
        channel = str(channel_files["binary_degraded"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", NotDegradedWarning)
            assert main(["secrecy-capacity", channel, "--degraded"]) == 0
            assert len(calls) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["degradedness_verdict"] == "stochastically-degraded"
            assert main(["secrecy-capacity", channel]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == 2 and "degradedness_verdict" not in doc

    def test_common_rate_trades_against_secrecy(self, channel_files,
                                                grid_config, capsys):
        rc = main(["secrecy-capacity", str(channel_files["clean_mac"]),
                   "--r0", "1.8", "--config", grid_config])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.2, abs=0.02)

    def test_config_file_is_honored(self, channel_files, tmp_path, capsys):
        cfg = _write_json(tmp_path / "cfg.json",
                          {"strategy": "random", "sample_count": 10,
                           "seed": 77})
        rc = main(["secrecy-capacity", str(channel_files["binary_degraded"]),
                   "--degraded", "--config", cfg])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 77
        assert doc["config"]["strategy"] == "random"

    def test_bad_config_key(self, channel_files, tmp_path, capsys):
        cfg = _write_json(tmp_path / "cfg.json", {"stratagem": "grid"})
        rc = main(["secrecy-capacity", str(channel_files["clean_mac"]),
                   "--config", cfg])
        assert rc == 2

    @pytest.mark.parametrize("doc", [[], "x", ["seed"]], ids=["list", "string", "keys"])
    @pytest.mark.parametrize("command", ["secrecy-capacity", "region"])
    def test_config_that_is_not_an_object(self, channel_files, tmp_path, capsys,
                                          command, doc):
        cfg = _write_json(tmp_path / "cfg.json", doc)
        bound = ["--bound", "inner1"] if command == "region" else []
        rc = main([command, str(channel_files["clean_mac"]), *bound, "--config", cfg,
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert _stderr_error(capsys)["message"] == "search config must be a JSON object"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("strategy", ["grid", "random"])
    def test_negative_seed_is_an_input_error(self, channel_files, tmp_path, capsys,
                                             strategy):
        cfg = _write_json(tmp_path / "cfg.json", {"strategy": strategy, "seed": -1,
                                                  "cardinalities": [1, 2, 1]})
        out = tmp_path / "cap.json"
        rc = main(["secrecy-capacity", str(channel_files["binary_degraded"]),
                   "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert _stderr_error(capsys)["message"] == "seed must be nonnegative, got -1"
        assert not out.exists()

    def test_fractional_cardinalities_are_input_errors(self, channel_files, tmp_path,
                                                       capsys):
        cfg = _write_json(tmp_path / "cfg.json", {"cardinalities": [2.9, 1.5, 1]})
        rc = main(["secrecy-capacity", str(channel_files["binary_degraded"]),
                   "--config", cfg])
        assert rc == 2
        assert "whole number" in _stderr_error(capsys)["message"]


class TestSimulate:
    SIM = {"n": 2, "M0": 1, "M1": 2, "M2": 1, "J1": 1, "J2": 1,
           "input_dist": [[0.5, 0.5], [1.0]], "seeds": [0, 1]}

    def test_report_and_csv(self, channel_files, tmp_path, capsys):
        cfg = _write_json(tmp_path / "sim.json", self.SIM)
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        rc = main(["simulate", cfg,
                   "--channel", str(channel_files["binary_degraded"]),
                   "--out", str(out), "--csv", str(csv)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["reports"]) == 2
        assert doc["aggregate"]["seed_count"] == 2
        lines = csv.read_text().splitlines()
        assert lines[0] == ("seed,error_probability,equivocation_user2,"
                            "equivocation_user1,R0,R1,R2")
        assert len(lines) == 3
        assert lines[1].startswith("0,")
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]
        assert set(manifest["outputs"]) == {"report_json", "report_csv"}
        assert json.loads(capsys.readouterr().out)["aggregate"] == doc["aggregate"]

    def test_csv_bytes_are_pinned(self, channel_files, tmp_path, capsys):
        sim = {"n": 10, "M0": 1, "M1": 16, "M2": 1, "J1": 4, "J2": 1,
               "input_dist": [[0.5, 0.5], [1.0]], "seeds": [1, 2, 3]}
        cfg = _write_json(tmp_path / "sim.json", sim)
        csv = tmp_path / "report.csv"
        assert main(["simulate", cfg,
                     "--channel", str(channel_files["binary_degraded"]),
                     "--csv", str(csv)]) == 0
        assert csv.read_bytes() == (
            b"seed,error_probability,equivocation_user2,equivocation_user1,R0,R1,R2\n"
            b"1,0.327344223,0.254807538,0,0,0.4,0\n"
            b"2,0.348432275,0.262102501,0,0,0.4,0\n"
            b"3,0.339932722,0.251425215,0,0,0.4,0\n")

    def test_missing_and_unknown_keys(self, channel_files, tmp_path, capsys):
        incomplete = {k: v for k, v in self.SIM.items() if k != "seeds"}
        cfg = _write_json(tmp_path / "a.json", incomplete)
        assert main(["simulate", cfg,
                     "--channel", str(channel_files["binary_degraded"])]) == 2
        assert "seeds" in _stderr_error(capsys)["message"]

        cfg = _write_json(tmp_path / "b.json", {**self.SIM, "blocklen": 2})
        assert main(["simulate", cfg,
                     "--channel", str(channel_files["binary_degraded"])]) == 2
        assert "blocklen" in _stderr_error(capsys)["message"]

    def test_fractional_counts_are_input_errors(self, channel_files, tmp_path, capsys):
        cfg = _write_json(tmp_path / "sim.json",
                          {**self.SIM, "n": 4.7, "M1": 2.9, "seeds": [1.5]})
        rc = main(["simulate", cfg, "--channel", str(channel_files["binary_degraded"])])
        assert rc == 2
        assert "whole number" in _stderr_error(capsys)["message"]

    def test_negative_seed_is_an_input_error(self, channel_files, tmp_path, capsys):
        cfg = _write_json(tmp_path / "sim.json", {**self.SIM, "seeds": [-3]})
        rc = main(["simulate", cfg, "--channel", str(channel_files["binary_degraded"])])
        assert rc == 2
        assert _stderr_error(capsys)["message"] == "seed must be nonnegative, got -3"

    def test_blown_state_guard_is_code_three(self, channel_files, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.setenv("GMAC_MAX_STATES", "4")
        cfg = _write_json(tmp_path / "sim.json", self.SIM)
        rc = main(["simulate", cfg,
                   "--channel", str(channel_files["binary_degraded"])])
        assert rc == 3
        assert _stderr_error(capsys)["error"] == "EnumerationTooLarge"

    def test_infinite_state_guard_is_an_input_error(self, channel_files, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("GMAC_MAX_STATES", "inf")
        cfg = _write_json(tmp_path / "sim.json", self.SIM)
        rc = main(["simulate", cfg,
                   "--channel", str(channel_files["binary_degraded"])])
        assert rc == 2
        error = _stderr_error(capsys)
        assert error["error"] == "GmacError"
        assert "GMAC_MAX_STATES" in error["message"]


class TestInfo:
    def _query(self, channel_path, scheme_file, query, capsys):
        rc = main(["info", str(channel_path), "--scheme", scheme_file,
                   "--query", query])
        assert rc == 0
        return float(capsys.readouterr().out.strip())

    def test_conditional_information(self, channel_files, one_set_scheme_file,
                                     capsys):
        got = self._query(channel_files["clean_mac"], one_set_scheme_file,
                          "I(U;Y|X2,Q)", capsys)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_entropy_query(self, channel_files, one_set_scheme_file, capsys):
        got = self._query(channel_files["clean_mac"], one_set_scheme_file,
                          "H(U)", capsys)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_self_information_is_entropy(self, channel_files,
                                         one_set_scheme_file, capsys):
        lhs = self._query(channel_files["clean_mac"], one_set_scheme_file,
                          "I(U;U)", capsys)
        rhs = self._query(channel_files["clean_mac"], one_set_scheme_file,
                          "H(U)", capsys)
        assert lhs == rhs

    def test_pure_noise_leaks_nothing(self, tmp_path, capsys):
        channel = fx.pure_noise_wiretap()
        from gmacsec import save_channel

        chan_path = tmp_path / "chan.json"
        save_channel(channel, chan_path)
        scheme_path = _write_json(
            tmp_path / "scheme.json",
            scheme_to_dict(fx.uniform_u_equals_x1(channel)))
        got = self._query(chan_path, scheme_path, "I(U;Y2|X2,Q)", capsys)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_unknown_scheme_keys_are_input_errors(self, channel_files, tmp_path, capsys):
        doc = {**scheme_to_dict(fx.uniform_one_set_outer(fx.clean_mac())),
               "kind": "one_set", "p_u_givn_q": [[1.0, 0.0]]}
        rc = main(["info", str(channel_files["clean_mac"]), "--scheme",
                   _write_json(tmp_path / "scheme.json", doc), "--query", "H(U)"])
        assert rc == 2
        error = _stderr_error(capsys)
        assert error["error"] == "DimensionMismatch"
        assert "p_v_given_q" in error["message"] and "p_u_givn_q" in error["message"]

    def test_query_validation(self, channel_files, one_set_scheme_file,
                              capsys):
        bad = ["region + I(U;Y)", "I(U;Y;X2)", "I(U;Z)", "H()", "H(U|U)", "H(Z)"]
        for query in bad:
            rc = main(["info", str(channel_files["clean_mac"]),
                       "--scheme", one_set_scheme_file, "--query", query])
            assert rc == 2, query
            capsys.readouterr()
