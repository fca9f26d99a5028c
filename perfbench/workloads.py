"""The benchmark's workloads: inputs from a seed, one timed operation, and
an output check against the independent references.

Each class says why its workload exists; README.md has the full table, and
later changes cite the workloads by name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref


def _seed(seed: int, salt: int) -> int:
    """A program seed drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def _grid_size(rows_and_cols, resolution: int) -> int:
    """Schemes a grid search visits: per row, compositions of resolution-1."""
    m = resolution - 1
    total = 1
    for rows, cols in rows_and_cols:
        total *= math.comb(m + cols - 1, cols - 1) ** rows
    return total


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def run_cli(argv) -> int:
    """One CLI command in this process; its stdout is consumed and dropped."""
    from gmacsec import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Workload:
    name: str

    def prepare(self, seed: int, workdir):
        """Generate the inputs; returns the state used by op and check."""
        raise NotImplementedError

    def op(self, state):
        """The timed operation; returns what check() inspects."""
        raise NotImplementedError

    def check(self, state, output) -> list[str]:
        raise NotImplementedError

    def expected_schemes(self, tracer, ops: int) -> int:
        """Schemes the traced operations must have visited."""
        return sum(i["schemes_visited"] for i in tracer.region_infos)


class RegionInner1(Workload):
    """LP-bound: about 590 linprog calls in the frontier and witness sweeps
    over only 16 3-D pieces, so LP-free geometry shows here and scheme
    batching does not. Every scheme yields two pieces on this channel, so
    the work does not depend on the seed."""

    RESOLUTION = 17
    SAMPLES = 8
    CARDS = (2, 3, 2)          # SearchConfig's default cardinalities

    def prepare(self, seed, workdir):
        from gmacsec import fixtures as fx
        from gmacsec.channel import save_channel

        channel = fx.binary_degraded()
        search_seed = _seed(seed, 1)
        save_channel(channel, workdir / "channel.json")
        _write_json(workdir / "config.json", {
            "strategy": "random", "sample_count": self.SAMPLES,
            "seed": search_seed})
        out = workdir / "frontier.csv"
        argv = ["region", str(workdir / "channel.json"), "--bound", "inner1",
                "--plane", "R0,R1", "--resolution", str(self.RESOLUTION),
                "--config", str(workdir / "config.json"), "--out", str(out)]
        return {"argv": argv, "out": out, "prob": channel.prob,
                "search_seed": search_seed}

    def op(self, state):
        return run_cli(state["argv"])

    def supports(self, state):
        if "supports" not in state:
            terms = ref.one_set_terms(state["prob"], state["search_seed"],
                                      self.SAMPLES, self.CARDS)
            # Re = 0 slice of one scheme: R1 <= a, R0 + R1 <= b
            state["supports"] = ref.slice_supports(
                [(b, a, b) for a, b in terms], self.RESOLUTION)
        return state["supports"]

    def check(self, state, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        lines = state["out"].read_text(encoding="utf-8").split()
        if lines[0] != "R0,R1":
            return [f"unexpected CSV header {lines[0]!r}"]
        points = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return ref.check_frontier(points, self.supports(state), self.RESOLUTION)


class RegionTwoSet(Workload):
    """Piece-bound: 120 5-D pieces, vertex enumeration and emptiness LPs,
    few sweep queries. The library call is used because the CLI form spends
    about 20 s in its per-piece witness sweep.

    The piece count, and with it the work, swings widely between scheme
    draws and channels, so the channel (ROADMAP's W2 channel) and the
    schemes are fixed. The seed relabels the three outputs' letters, which
    changes every table the program builds but no information term, piece
    or vertex count.
    """

    RESOLUTION = 17
    SAMPLES = 3
    CARDS = (2, 2, 2)
    SIZES = (2, 2, 3, 2, 2)
    CHANNEL_SEED = 1
    SEARCH_SEED = 12345        # SearchConfig's default seed
    FIXED = {"R0": 0.0, "R1e": 0.0, "R2e": 0.0}

    def prepare(self, seed, workdir):
        from gmacsec import fixtures as fx
        from gmacsec.channel import validate_channel
        from gmacsec.optimizer import SearchConfig

        base = fx.random_channel(self.SIZES, np.random.default_rng(self.CHANNEL_SEED))
        rng = np.random.default_rng(_seed(seed, 3))
        y, y1, y2 = (rng.permutation(n) for n in self.SIZES[2:])
        table = base.prob[:, :, y][:, :, :, y1][:, :, :, :, y2]
        channel = validate_channel(table, self.SIZES)
        config = SearchConfig(strategy="random", sample_count=self.SAMPLES,
                              cardinalities=self.CARDS, seed=self.SEARCH_SEED)
        return {"channel": channel, "config": config}

    def op(self, state):
        from gmacsec import optimizer, regions

        region = optimizer.assemble_region(state["channel"], "two-set", state["config"])
        return regions.frontier(region, ("R1", "R2"), fixed=self.FIXED,
                                resolution=self.RESOLUTION)

    def supports(self, state):
        if "supports" not in state:
            terms = ref.two_set_terms(state["channel"].prob, state["config"].seed,
                                      self.SAMPLES, self.CARDS)
            # R0 = R1e = R2e = 0 slice: the multiple-access polygon
            state["supports"] = ref.slice_supports(
                [(m1, m2, min(m12, mt)) for m1, m2, m12, mt in terms],
                self.RESOLUTION)
        return state["supports"]

    def check(self, state, points):
        return ref.check_frontier(points, self.supports(state), self.RESOLUTION)


class CapacityGrid(Workload):
    """Scheme-bound: 1,875 grid schemes (ROADMAP's W3), all time in optimizer
    and infotheory, no LPs, so batched schemes show here and not on the
    region workloads."""

    CARDS = (1, 3, 1)
    RESOLUTION = 5

    def prepare(self, seed, workdir):
        from gmacsec import fixtures as fx
        from gmacsec.channel import save_channel

        rng = np.random.default_rng(_seed(seed, 4))
        p1, p2 = (float(v) for v in rng.uniform(0.05, 0.2, size=2))
        save_channel(fx.binary_degraded(p1, p2), workdir / "channel.json")
        _write_json(workdir / "config.json", {
            "strategy": "grid", "cardinalities": list(self.CARDS),
            "grid_resolution": self.RESOLUTION})
        out = workdir / "capacity.json"
        argv = ["secrecy-capacity", str(workdir / "channel.json"),
                "--config", str(workdir / "config.json"), "--out", str(out)]
        return {"argv": argv, "out": out, "p1": p1, "p2": p2}

    def op(self, state):
        return run_cli(state["argv"])

    def check(self, state, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        value = json.loads(state["out"].read_text(encoding="utf-8"))["value"]
        p1, p2 = state["p1"], state["p2"]
        # degraded binary wiretap: h(p1 * p2) - h(p1), uniform input
        closed = ref.binary_entropy(p1 * (1 - p2) + p2 * (1 - p1)) - ref.binary_entropy(p1)
        if abs(value - closed) > 1e-9:
            return [f"capacity {value!r} vs closed form {closed!r}"]
        return []

    def expected_schemes(self, tracer, ops):
        nq, nu, _ = self.CARDS
        # one-set blocks: p(q, x2) with |X2| = 1, p(u | q), p(x1 | u)
        return ops * _grid_size([(1, nq), (nq, nu), (nu, 2)], self.RESOLUTION)


class Simulate(Workload):
    """Tensor-bound: the only wiretap_sim workload; dense tables near the state
    guard, no LPs and no search, so peak_rss_mb means something here."""

    SIM = {"n": 16, "M0": 1, "M1": 16, "M2": 1, "J1": 8, "J2": 1,
           "input_dist": [[0.5, 0.5], [1.0]]}

    def prepare(self, seed, workdir):
        from gmacsec import fixtures as fx
        from gmacsec.channel import save_channel

        channel = fx.binary_degraded()
        save_channel(channel, workdir / "channel.json")
        seeds = [_seed(seed, 5) % 2**31]
        _write_json(workdir / "sim.json", {**self.SIM, "seeds": seeds})
        out = workdir / "report.json"
        argv = ["simulate", str(workdir / "sim.json"), "--channel",
                str(workdir / "channel.json"), "--out", str(out),
                "--csv", str(workdir / "report.csv")]
        return {"argv": argv, "out": out, "channel": channel, "seeds": seeds}

    def op(self, state):
        return run_cli(state["argv"])

    def references(self, state):
        """Exact figures per seed, summed directly from the codewords."""
        if "ref" not in state:
            sim = self.SIM
            state["ref"] = [
                ref.binning_code(state["channel"].prob, sim["n"], sim["M1"],
                                 sim["J1"], sim["input_dist"][0], s)
                for s in state["seeds"]]
        return state["ref"]

    def check(self, state, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        reports = json.loads(state["out"].read_text(encoding="utf-8"))["reports"]
        if [r["seed"] for r in reports] != state["seeds"]:
            return ["report seeds differ from the configured seeds"]
        sim = self.SIM
        problems = []
        for r, expected in zip(reports, self.references(state)):
            tag = f"seed {r['seed']}"
            for key, want in (("error_probability", expected["error_probability"]),
                              ("equivocation_user2", expected["user2"]),
                              ("equivocation_user1", 0.0)):   # M2 = 1: nothing to hide
                if abs(r[key] - want) > 1e-9:
                    problems.append(f"{tag}: {key} {r[key]!r} vs reference {want!r}")
            dest, pe = expected["destination"], r["error_probability"]
            if sim["n"] * dest > ref.fano_bound(pe, sim["M1"]) + 1e-9:
                problems.append(f"{tag}: destination equivocation {dest} "
                                f"breaks Fano at pe={pe}")
            # physically degraded: user 2 knows no more than the destination
            if r["equivocation_user2"] < dest - 1e-9:
                problems.append(f"{tag}: user 2 equivocation "
                                f"{r['equivocation_user2']} < destination {dest}")
            if abs(r["rates"][1] - math.log2(sim["M1"]) / sim["n"]) > 1e-12:
                problems.append(f"{tag}: rate {r['rates']}")
        return problems


WORKLOADS = {w.name: w for w in (
    RegionInner1("region-inner1"),
    RegionTwoSet("region-two-set"),
    CapacityGrid("capacity-grid"),
    Simulate("simulate"),
)}
