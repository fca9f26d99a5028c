"""Per-layer spans and counters recorded from outside gmacsec.

`Instrumentation` wraps the public functions of each gmacsec module, at
every module binding that refers to them (a name imported with
`from ... import` is a binding of its own), and records one span per call.
Scheme generators get one span per `next()`, because creating a generator
does no work. The thread pool's `map` is recorded as a wait, not as work.

Self time is shared among threads: each interval between span events is
split equally among the threads that are inside a non-wait span at the
time, and each thread's share goes to its innermost span. Every thread
keeps its own span stack. An interval in which every open span is a wait
counts as waiting. `Tracer.self_check` verifies that every thread is busy
or waiting for the whole time it has a span open, and that self time and
waiting together lie between 95% and 100% of the traced wall. The first
and the lower limit fail when a span loses time; the upper limit, that the
summed self times fit within the wall, holds by construction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

# Modules whose public functions are wrapped; each is one layer.
LAYERS = ("channel", "infotheory", "regions", "one_set", "two_set",
          "optimizer", "wiretap_sim", "cli")

# Time buckets for functions that do not go to "<layer>.self_s".
_BUCKETS = {
    ("regions", "linprog"): "regions.lp_s",
    ("regions", "piece_vertices"): "regions.vertex_s",
    ("regions", "convexify"): "regions.hull_s",
    ("regions", "frontier"): "regions.sweep_s",
    ("regions", "frontier_sweep"): "regions.sweep_s",
    ("regions", "piece_support"): "regions.sweep_s",
    ("regions", "slice_piece"): "regions.sweep_s",
    ("infotheory", "assemble_joint_one_set"): "infotheory.joint_s",
    ("infotheory", "assemble_joint_one_set_outer"): "infotheory.joint_s",
    ("infotheory", "assemble_joint_two_set"): "infotheory.joint_s",
    ("infotheory", "assemble_joint_degraded"): "infotheory.joint_s",
    ("infotheory", "mutual_information"): "infotheory.mi_s",
    ("infotheory", "entropy"): "infotheory.entropy_s",
    ("optimizer", "enumerate_schemes_grid"): "optimizer.enumerate_s",
    ("optimizer", "sample_schemes_random"): "optimizer.enumerate_s",
    ("wiretap_sim", "exact_error_probability"): "wiretap_sim.error_s",
    ("wiretap_sim", "exact_equivocation"): "wiretap_sim.equivocation_s",
    ("wiretap_sim", "equivocation_joint"): "wiretap_sim.equivocation_s",
}

WAIT_BUCKET = "optimizer.pool_wait_s"

# Share of the traced wall that self time and waiting must account for;
# the rest is the harness's own code around the outermost span.
COVERAGE = 0.95


class Tracer:
    """Span stacks per thread, self time per bucket, and counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._busy = {}           # thread id -> innermost non-wait frame
        self._waiting = set()     # thread ids whose innermost frame is a wait
        self._last = time.perf_counter()
        self.wait_only = 0.0      # seconds in which every open span waits
        self._open = defaultdict(float)       # thread id -> seconds with a span open
        self._accounted = defaultdict(float)  # thread id -> seconds busy or waiting
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.threads = set()
        self.region_infos = []    # RateRegion.info of every assembled region

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _advance(self, now):
        for tid in (*self._busy, *self._waiting):
            self._accounted[tid] += now - self._last
        if self._busy:
            share = (now - self._last) / len(self._busy)
            for frame in self._busy.values():
                frame[1] += share
        elif self._waiting:
            self.wait_only += now - self._last
        self._last = now

    def _innermost(self, tid, frame):
        self._busy.pop(tid, None)
        self._waiting.discard(tid)
        if frame is None:
            return
        if frame[2]:
            self._waiting.add(tid)
        else:
            self._busy[tid] = frame

    def enter(self, bucket, wait=False, key=None):
        # frame: [bucket, self seconds, wait flag, start time, (layer, name)]
        tid = threading.get_ident()
        stack = self._stack()
        with self._lock:
            now = time.perf_counter()
            self._advance(now)
            frame = [bucket, 0.0, wait, now, key]
            stack.append(frame)
            self.threads.add(tid)
            self._innermost(tid, frame)
        return frame

    def exit(self, frame):
        tid = threading.get_ident()
        stack = self._stack()
        with self._lock:
            now = time.perf_counter()
            self._advance(now)
            if stack.pop() is not frame:
                raise RuntimeError(f"span {frame[0]} closed out of order")
            self.seconds[frame[0]] += (now - frame[3]) if frame[2] else frame[1]
            self._innermost(tid, stack[-1] if stack else None)
            if not stack:
                self._open[tid] += now - frame[3]

    def inside(self, key) -> bool:
        """Whether this thread has a span of (layer, name) open."""
        return any(frame[4] == key for frame in self._stack())

    def count(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    def record_region(self, info):
        with self._lock:
            self.region_infos.append(dict(info))

    def self_check(self, traced_wall, expected_schemes) -> list[str]:
        """Invariants a correct trace must satisfy; returns the violations."""
        problems = []
        schemes = self.counts["optimizer.schemes"]
        if schemes != expected_schemes:
            problems.append(f"optimizer.schemes {schemes} != schemes visited "
                            f"{expected_schemes}")
        dropped = sum(i.get("empty_pieces_dropped", 0) for i in self.region_infos)
        if self.counts["optimizer.dropped"] != dropped:
            problems.append(f"dropped pieces {self.counts['optimizer.dropped']} "
                            f"!= empty_pieces_dropped {dropped}")
        for tid, open_s in self._open.items():
            lost = open_s - self._accounted[tid]
            if lost > 1e-6:
                problems.append(f"a thread was neither busy nor waiting for "
                                f"{lost:.6f} s of its {open_s:.6f} s in spans")
        busy = sum(v for k, v in self.seconds.items() if k != WAIT_BUCKET)
        covered = busy + self.wait_only
        # the upper limit holds by construction; the lower one can fail
        if not COVERAGE * traced_wall <= covered <= traced_wall + 1e-6:
            problems.append(f"self time and waiting {covered:.6f} s are not "
                            f"between {COVERAGE} and 1 times the traced wall "
                            f"{traced_wall:.6f} s")
        return problems


def _hook_piece_is_empty(tr, binding, args, kwargs, result):
    tr.count("regions.empty_tests")
    if result:
        tr.count("regions.empty_found")
        if binding == "optimizer":
            tr.count("optimizer.dropped")


def _hook_polytope(tr, binding, args, kwargs, result):
    if tr.inside(("regions", "clip_plus_split")):
        tr.count("regions.pieces_expanded")


def _hook_clip(tr, binding, args, kwargs, result):
    tr.count("regions.pieces_kept", len(result))


def _hook_vertices(tr, binding, args, kwargs, result):
    tr.count("regions.vertex_calls")
    tr.count("regions.vertices", int(result.shape[0]))


def _hook_convexify(tr, binding, args, kwargs, result):
    tr.count("regions.hull_points", int(result.hull_points.shape[0]))


def _hook_joint(tr, binding, args, kwargs, result):
    tr.count("infotheory.joint_calls")
    tr.count("infotheory.joint_cells", int(result.prob.size))


def _hook_region(tr, binding, args, kwargs, result):
    tr.record_region(result.info)


def _hook_codebook(tr, binding, args, kwargs, result):
    tr.count("wiretap_sim.codebooks")
    # the same product build_codebook holds against the state guard
    tr.count("wiretap_sim.states",
             result.size_x1 ** result.n * result.size_x2 ** result.n
             * result.M0 * result.M1 * result.M2 * result.J1 * result.J2)


def _hook_equivocation_joint(tr, binding, args, kwargs, result):
    tr.count("wiretap_sim.table_bytes", int(result.prob.nbytes))


def _counter(name):
    return lambda tr, binding, args, kwargs, result: tr.count(name)


_HOOKS = {
    ("regions", "linprog"): _counter("regions.lp_calls"),
    ("regions", "piece_is_empty"): _hook_piece_is_empty,
    ("regions", "polytope"): _hook_polytope,
    ("regions", "clip_plus_split"): _hook_clip,
    ("regions", "piece_vertices"): _hook_vertices,
    ("regions", "convexify"): _hook_convexify,
    ("infotheory", "assemble_joint_one_set"): _hook_joint,
    ("infotheory", "assemble_joint_one_set_outer"): _hook_joint,
    ("infotheory", "assemble_joint_two_set"): _hook_joint,
    ("infotheory", "assemble_joint_degraded"): _hook_joint,
    ("infotheory", "mutual_information"): _counter("infotheory.mi_calls"),
    ("infotheory", "entropy"): _counter("infotheory.entropy_calls"),
    ("one_set", "one_set_terms"): _counter("one_set.terms_calls"),
    ("one_set", "degraded_terms"): _counter("one_set.terms_calls"),
    ("two_set", "two_set_terms"): _counter("two_set.terms_calls"),
    ("optimizer", "assemble_region"): _hook_region,
    ("wiretap_sim", "build_codebook"): _hook_codebook,
    ("wiretap_sim", "equivocation_joint"): _hook_equivocation_joint,
}


def _sweep_hook(fn):
    signature = inspect.signature(fn)

    def hook(tr, binding, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tr.count("regions.sweep_directions", int(bound.arguments["resolution"]))
    return hook


class Instrumentation:
    """Installs and removes the wrappers on every gmacsec module binding."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._targets = {}        # id(original) -> (original, layer, name)
        self._patches = []        # (namespace dict, key, original)
        for layer in LAYERS:
            mod = importlib.import_module(f"gmacsec.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._targets[id(obj)] = (obj, layer, name)
        regions = sys.modules["gmacsec.regions"]
        self._linprog = regions.linprog
        self._pool = sys.modules["gmacsec.optimizer"].ThreadPoolExecutor

    def _wrap(self, fn, layer, name, binding):
        tracer = self.tracer
        bucket = _BUCKETS.get((layer, name), f"{layer}.self_s")
        hook = _HOOKS.get((layer, name))
        if (layer, name) == ("regions", "frontier_sweep"):
            hook = _sweep_hook(fn)

        if inspect.isgeneratorfunction(fn):
            # the scheme generators are the only generator functions wrapped
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer.enter(bucket, key=(layer, name))
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    tracer.count("optimizer.schemes")
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(bucket, key=(layer, name))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(tracer, binding, args, kwargs, result)
            return result
        return wrapper

    def _waiting_pool(self):
        tracer = self.tracer

        class WaitingPool(self._pool):
            def map(self, fn, *iterables, **kwargs):
                frame = tracer.enter(WAIT_BUCKET, wait=True)
                try:
                    return iter(list(super().map(fn, *iterables, **kwargs)))
                finally:
                    tracer.exit(frame)
        return WaitingPool

    def _patch(self, namespace, key, value):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self):
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        wrappers = {}
        for modname in sorted(m for m in sys.modules if m == "gmacsec"
                              or m.startswith("gmacsec.")):
            namespace = vars(sys.modules[modname])
            binding = modname.rpartition(".")[2]
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in self._targets:
                            self._patch(value, k, self._wrapper(wrappers, v, binding))
                elif id(value) in self._targets:
                    self._patch(namespace, key, self._wrapper(wrappers, value, binding))
        regions = vars(sys.modules["gmacsec.regions"])
        self._patch(regions, "linprog",
                    self._wrap(self._linprog, "regions", "linprog", "regions"))
        optimizer = vars(sys.modules["gmacsec.optimizer"])
        self._patch(optimizer, "ThreadPoolExecutor", self._waiting_pool())

    def _wrapper(self, cache, fn, binding):
        key = (id(fn), binding)
        if key not in cache:
            _, layer, name = self._targets[id(fn)]
            cache[key] = self._wrap(fn, layer, name, binding)
        return cache[key]

    def remove(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

