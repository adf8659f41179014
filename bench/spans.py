"""In-memory spans around the calls into each layer of apollonius.

The traced run wraps, from the benchmark's side, the public functions of
every layer module (plus a few private stages named below) at each place
they are looked up: a function imported by name into another module,
such as probability.uniform_block, is wrapped in that module too. Each
span records its id, name, start and end (perf_counter_ns, which is
CLOCK_MONOTONIC and so comparable across processes), parent span and a
work count (draws, angles, points, elements or samples). Spans stay in
per-thread buffers until the run ends and are then written out once.

Parents follow a context variable, and the thread pool that shards the
Monte Carlo work is swapped for one that carries the submitting
thread's context into its workers, so a shard's spans keep the estimate
call as their parent.
"""

from __future__ import annotations

import array
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

FIELDS = 6  # id, name, start, end, parent, work

LAYERS = (
    "rng",
    "probability",
    "locus",
    "fourpoint",
    "halfplane",
    "svg",
    "serialize",
    "diophantine",
    "cli",
)


def _size(value):
    try:
        return len(value)
    except TypeError:
        return 0


def _draws(args, kwargs, result):
    return int(args[2]) - int(args[1])  # uniform_block(seed, lo, hi, draw)


def _angles(args, kwargs, result):
    return int(np.size(args[1]))  # _solve_arrays(cfg, thetas)


def _elements(args, kwargs, result):
    return int(np.size(args[0]))  # axis_angle(x, y, h1, h2)


def _samples_n(args, kwargs, result):
    return int(args[0])  # estimate_pe(n, ...), estimate_ph(n, ...)


def _result_len(args, kwargs, result):
    return _size(result)  # sample_curve -> samples


def _first_len(args, kwargs, result):
    return _size(args[0])  # samples_to_csv(samples), render_svg(samples)


# work counters by span name; a span without one records 0
WORK = {
    "rng.uniform_block": _draws,
    "locus._solve_arrays": _angles,
    "halfplane.axis_angle": _elements,
    "probability.estimate_pe": _samples_n,
    "probability.estimate_ph": _samples_n,
    "locus.sample_curve": _result_len,
    "locus.samples_to_csv": _first_len,
    "svg.render_svg": _first_len,
}

# private stages wrapped by name: the root solve both locus and fourpoint
# call, and the hyperbolic witness sweep whose count is the escalations
PRIVATE = {"locus": ("_solve_arrays",), "fourpoint": ("_scan_locus",)}


class Tracer:
    """Span store plus the patches that feed it."""

    active = True

    def __init__(self):
        self.children: list[Spans] = []  # span tables of traced child processes
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("span", default=-1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array.array] = []
        self._names: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def _buffer(self) -> array.array:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = array.array("q")
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self._buffer().extend((sid, self.name_id(name), start, end, parent, 0))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a spanning wrapper; restore() undoes it."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        work = WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(sid)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._current.reset(token)
                amount = work(args, kwargs, result) if work is not None and result is not None else 0
                tracer._buffer().extend((sid, nid, start, end, parent, amount))

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer's public functions wherever the package looks them up."""
        modules = {name: importlib.import_module(f"apollonius.{name}") for name in LAYERS}
        package = importlib.import_module("apollonius")
        lookups = [package, *modules.values()]
        for layer, module in modules.items():
            public = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            names = [n for n in public if inspect.isfunction(getattr(module, n))]
            names += [n for n in PRIVATE.get(layer, ()) if hasattr(module, n)]
            for attr in names:
                original = getattr(module, attr)
                if original.__module__ != module.__name__:
                    continue  # re-exported from another layer; wrapped at its home
                for owner in lookups:
                    if getattr(owner, attr, None) is original:
                        self.wrap(owner, attr, f"{layer}.{attr}")
        rng = modules["rng"]
        if hasattr(rng, "SampleStream"):
            self.wrap(rng.SampleStream, "next_float", "rng.SampleStream.next_float")
        prob = modules["probability"]
        if getattr(prob, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._patches.append((prob, "ThreadPoolExecutor", ThreadPoolExecutor))
            prob.ThreadPoolExecutor = ContextExecutor

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> "Spans":
        with self._lock:
            flat = np.concatenate(
                [np.frombuffer(b, dtype=np.int64) for b in self._buffers if len(b)]
                or [np.empty(0, dtype=np.int64)]
            )
            names = sorted(self._names, key=self._names.get)
        return Spans(flat.reshape(-1, FIELDS), names)


class ContextExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Spans:
    """A span table, rows (id, name, start, end, parent, work), with queries by name."""

    def __init__(self, table: np.ndarray, names: list[str]):
        self.table = table
        self.names = list(names)

    @classmethod
    def concat(cls, parts: list["Spans"]) -> "Spans":
        """Merge tables from several processes, renumbering ids apart."""
        names: list[str] = []
        rows = []
        offset = 0
        for part in parts:
            index = {n: i for i, n in enumerate(names)}
            for n in part.names:
                if n not in index:
                    index[n] = len(names)
                    names.append(n)
            remap = np.array([index[n] for n in part.names], dtype=np.int64)
            t = part.table.copy()
            if len(t):
                t[:, 1] = remap[t[:, 1]]
                t[:, 0] += offset
                t[:, 4] = np.where(t[:, 4] >= 0, t[:, 4] + offset, -1)
                offset = int(t[:, 0].max()) + 1
            rows.append(t)
        table = np.concatenate(rows) if rows else np.empty((0, FIELDS), dtype=np.int64)
        return cls(table, names)

    def save(self, path) -> None:
        np.savez(path, table=self.table, names=np.array(self.names, dtype=str))

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls(data["table"], [str(n) for n in data["names"]])

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.table), dtype=bool)
        return self.table[:, 1] == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations_ns(self, name: str) -> np.ndarray:
        rows = self.table[self._mask(name)]
        return rows[:, 3] - rows[:, 2]

    def total_ns(self, name: str) -> int:
        return int(self.durations_ns(name).sum())

    def work(self, name: str) -> int:
        return int(self.table[self._mask(name), 5].sum())

    def child_count(self, parent_name: str, child_name: str) -> int:
        parents = self.table[self._mask(parent_name), 0]
        return int(np.isin(self.table[self._mask(child_name), 4], parents).sum())

    def self_ns(self, name: str) -> int:
        """Summed self time: each span's duration minus the union of its children's intervals."""
        rows = self.table[self._mask(name)]
        if not len(rows):
            return 0
        children = self.table[np.isin(self.table[:, 4], rows[:, 0])]
        covered: dict[int, int] = {}
        order = np.lexsort((children[:, 2], children[:, 4]))
        parent, cur_lo, cur_hi = None, 0, 0
        for row in children[order]:
            p, lo, hi = int(row[4]), int(row[2]), int(row[3])
            if p != parent:
                if parent is not None:
                    covered[parent] = covered.get(parent, 0) + cur_hi - cur_lo
                parent, cur_lo, cur_hi = p, lo, hi
            elif lo > cur_hi:
                covered[parent] = covered.get(parent, 0) + cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + cur_hi - cur_lo
        total = int((rows[:, 3] - rows[:, 2]).sum())
        return total - sum(covered.values())
