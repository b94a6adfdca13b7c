"""In-memory span tracing of the ishtc modules, installed from outside.

The tracer rebinds every public function of each traced module wherever an
ishtc module looks it up (``ishtc.solver.threshold_vector``,
``ishtc.modelselect.continuation_solve``, ...), plus the class attributes
``SensingOperator.apply``/``apply_adjoint``/``densify`` and
``PathResult.to_csv``. Nothing under ``src/`` changes, and :meth:`uninstall`
restores every original binding.

A span is (id, parent id, name, start, end, work). Spans are kept in
per-thread ``array`` buffers, so two worker threads never interleave the
fields of one record; :meth:`Tracer.spans` returns them as columns when
the run ends. ``work`` is one number a span carries: matrix bytes of a dense
matvec, elements thresholded, or bytes of an array file.

Counts that need a function's result or exception (path shape, divergence
point, matrix seeds) are collected at the same boundaries into per-thread
dicts and merged at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

#: Traced modules, in the order their metrics are listed.
MODULES = (
    "thresholding", "linop", "solver", "modelselect", "probgen",
    "storage", "metrics", "experiments", "cli",
)

#: Transform kernels that run inside ``SensingOperator.apply``; they stay in
#: apply's self time instead of adding two spans to every matvec.
UNWRAPPED = {"linop.haar_forward", "linop.haar_inverse", "linop.real_dft", "linop.real_dft_adjoint"}

#: Class attributes traced as ``<module>.<name>``.
METHODS = (
    ("linop", "SensingOperator", "apply"),
    ("linop", "SensingOperator", "apply_adjoint"),
    ("linop", "SensingOperator", "densify"),
    ("solver", "PathResult", "to_csv"),
)

#: Matrix generators whose seeds feed ``probgen.matrix_regen_frac``.
MATRIX_GENERATORS = {
    "probgen.gen_gaussian_matrix", "probgen.gen_bernoulli_matrix",
    "probgen.gen_correlated_gaussian", "linop.make_partial_fft_haar",
}

_FIELDS = 6  # id, parent, name id, start, end, work


class _ThreadState:
    __slots__ = ("stack", "buf", "stats")

    def __init__(self) -> None:
        self.stack: list = []
        self.buf = array("d")
        self.stats: dict = defaultdict(float)


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._names: list = []
        self._name_ids: dict = {}
        self._restore: list = []
        #: (operation index, generator, arguments) of every matrix built.
        self.matrix_keys: list = []
        #: Index of the current closed-loop operation, set by the benchmark.
        self.op_index = 0

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self._names))
                if nid == len(self._names):
                    self._names.append(name)
        return nid

    def wrap(self, name, fn, hook=None, name_fn=None, parent=0):
        """Return ``fn`` recording one span per call.

        ``hook(args, kwargs, result, exc, stats)`` returns the span's work
        value and may add counts to the thread's stats. ``name_fn(args)``
        picks the span name per call. ``parent`` is the parent id used when
        the calling thread has no open span (tasks run by a worker pool).
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        ids = self._ids
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            sid = next(ids)
            up = stack[-1] if stack else parent
            n = self.name_id(name_fn(args)) if name_fn else nid
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                w = hook(args, kwargs, None, exc, st.stats) if hook else 0.0
                st.buf.extend((sid, up, n, t0, t1, w))
                raise
            t1 = clock()
            stack.pop()
            w = hook(args, kwargs, result, None, st.stats) if hook else 0.0
            st.buf.extend((sid, up, n, t0, t1, w))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import ishtc

        mods = {name: importlib.import_module(f"ishtc.{name}") for name in MODULES}
        every = [ishtc, *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                qual = f"{short}.{attr}"
                if (
                    attr.startswith("_") or qual in UNWRAPPED
                    or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                ):
                    continue
                wrapped = self.wrap(qual, fn, **self._extras(qual, fn))
                for m in every:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._rebind(m, key, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            qual = f"{short}.{meth}" if cls_name == "SensingOperator" else f"{short}.{cls_name}.{meth}"
            fn = vars(cls)[meth]
            self._rebind(cls, meth, self.wrap(qual, fn, **self._extras(qual, fn)))
        # Task spans: wrap the per-task callable where the sweep and grid functions map it.
        exp = mods["experiments"]
        run_ordered = exp._run_ordered

        def traced_run_ordered(fn, tasks, workers):
            stack = self._state().stack
            task = self.wrap("experiments.task", fn, parent=stack[-1] if stack else 0)
            return run_ordered(task, tasks, workers)

        self._rebind(exp, "_run_ordered", traced_run_ordered)

    def uninstall(self) -> None:
        for obj, key, old in reversed(self._restore):
            setattr(obj, key, old)
        self._restore.clear()

    def _rebind(self, obj, key, new) -> None:
        self._restore.append((obj, key, vars(obj)[key]))
        setattr(obj, key, new)

    def _extras(self, qual: str, fn) -> dict:
        if qual == "cli.main":
            return {"name_fn": _cli_name}
        if qual in MATRIX_GENERATORS:
            return {"hook": functools.partial(self._matrix_seed, qual, inspect.signature(fn))}
        return {"hook": _HOOKS.get(qual)}

    def _matrix_seed(self, qual, sig, args, kwargs, result, exc, stats) -> float:
        bound = sig.bind(*args, **kwargs).arguments
        key = tuple((k, _plain(v)) for k, v in bound.items())
        self.matrix_keys.append((self.op_index, qual, key))
        return 0.0

    # -- output --------------------------------------------------------------

    def spans(self) -> dict:
        """All spans as columns, with self time (span minus covered child time)."""
        bufs = [np.frombuffer(st.buf, dtype=np.float64).reshape(-1, _FIELDS) for st in self._states]
        threads = np.concatenate([np.full(len(b), i) for i, b in enumerate(bufs)])
        rows = np.concatenate(bufs)
        sid = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        t0, t1 = rows[:, 3], rows[:, 4]
        dur = t1 - t0
        row_of = np.full(int(sid.max(initial=0)) + 1, -1, dtype=np.int64)
        row_of[sid] = np.arange(sid.size)
        prow = row_of[parent]  # a parent starts before its children, so its id is in range
        has = prow >= 0
        same = has & (threads == threads[np.where(has, prow, 0)])
        covered = np.bincount(prow[same], weights=dur[same], minlength=sid.size)
        # Children on another thread (pool tasks) may overlap each other;
        # count the union of their intervals inside the parent's.
        cross = np.flatnonzero(has & ~same)
        for p in np.unique(prow[cross]):
            kids = cross[prow[cross] == p]
            covered[p] += _union(np.maximum(t0[kids], t0[p]), np.minimum(t1[kids], t1[p]))
        return {
            "id": sid, "parent": parent, "name": rows[:, 2].astype(np.int64),
            "thread": threads, "t0": t0, "t1": t1, "work": rows[:, 5],
            "self": np.maximum(dur - covered, 0.0), "names": np.array(self._names),
        }

    def stats(self) -> dict:
        total: dict = defaultdict(float)
        for st in self._states:
            for key, val in st.stats.items():
                if key.endswith(".max"):
                    total[key] = max(total[key], val)
                else:
                    total[key] += val
        return total



def _plain(v):
    if isinstance(v, np.random.SeedSequence):
        return (v.entropy, tuple(v.spawn_key))
    return v


def _union(lo: np.ndarray, hi: np.ndarray) -> float:
    order = np.argsort(lo)
    total, end = 0.0, -np.inf
    for a, b in zip(lo[order], hi[order]):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


# -- hooks: each returns the span's work value -------------------------------


def _dense_bytes(args, kwargs, result, exc, stats) -> float:
    op = args[0]
    return 8.0 * op.n * op.p if op.kind == "dense" else 0.0


def _elements(args, kwargs, result, exc, stats) -> float:
    return float(result.size) if result is not None else 0.0


def _bytes_written(args, kwargs, result, exc, stats) -> float:
    arr = args[1] if len(args) > 1 else kwargs["arr"]
    return 16.0 + 8.0 * np.asarray(arr).size


def _bytes_read(args, kwargs, result, exc, stats) -> float:
    return 16.0 + 8.0 * result.size if result is not None else 0.0


def _cli_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def _path_stats(args, kwargs, result, exc, stats) -> float:
    """Path shape from the returned PathResult, or the divergence point.

    A diverged run spent 1 adjoint on the auto starting level, 2*kmax per
    completed level, and 2 per inner step of the failing level, the last
    one included.
    """
    from ishtc.solver import DivergenceError

    op = args[0]
    config = args[2] if len(args) > 2 else kwargs["config"]
    if result is not None:
        _, path = result
        levels = len(path) - 1
        cap = min(op.n, op.p)
        stats["levels"] += levels
        stats["levels_returned"] += levels
        stats["levels_saturated"] += sum(1 for s in path.supports[1:] if s.size > cap)
        stats["n_matvec"] += path.n_matvec
        held = sum(a.nbytes for a in path.solutions) + sum(a.nbytes for a in path.supports)
        held += sum(a.nbytes for a in (path.lambdas, path.residual_norms,
                                        path.objective_values, path.matvec_cumulative))
        stats["path_bytes.max"] = max(stats["path_bytes.max"], float(held))
    elif isinstance(exc, DivergenceError):
        auto = 1 if config.lambda0 == "auto" else 0
        spent = auto + 2 * config.kmax * (exc.level - 1) + 2 * exc.inner_k
        stats["levels"] += exc.level - 1
        stats["n_matvec"] += spent
        stats["diverged"] += 1
        stats["diverged_matvec"] += spent
    return 0.0


_HOOKS = {
    "linop.apply": _dense_bytes,
    "linop.apply_adjoint": _dense_bytes,
    "thresholding.threshold_vector": _elements,
    "storage.write_array": _bytes_written,
    "storage.read_array": _bytes_read,
    "solver.continuation_solve": _path_stats,
}
