"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each rekbench module listed in
LAYERS, records one span per call (name, start, end, parent) and restores
the originals on uninstall.  Nothing in src/ is edited: functions are
replaced where they are looked up, which for names bound with
``from .x import f`` is the importing module's namespace, and for matrix
and state methods is the class.

Each thread keeps its own parent stack, so spans made in the bench thread
pool nest under that thread's own calls.  A span's self time is its
duration minus the time covered by its direct children; aggregates are
kept per thread while running and merged on read.
"""

from __future__ import annotations

import importlib
import sys
import threading
from array import array
from time import perf_counter_ns

import numpy as np

# Public functions timed per module.  A linalg name that is not a module
# attribute is a method of both matrix classes; a dotted name is a method.
LAYERS = {
    "linalg": (
        "mat_row",
        "mat_t_col",
        "matvec",
        "rmatvec",
        "add_scaled_row",
        "col_vec",
        "row_pair_dot",
        "col_pair_dot",
        "build_norm_cache",
        "direct_least_squares",
    ),
    "selection": (
        "scores_from_residual",
        "greedy_threshold",
        "build_index_set",
        "weighted_pick",
        "weighted_pick_norms",
        "simple_random_sample",
        "top_two",
    ),
    "updates": ("two_dim_row_coeffs", "pair_geometry_from"),
    "solvers": ("solve", "step", "converged", "SolverState.refresh", "build_caches"),
    "problems": (
        "gen_gaussian",
        "make_inconsistent_problem",
        "gen_parallel_beam",
        "save_problem",
        "load_problem",
        "read_matrix_market",
    ),
    "rng": ("stream", "cell_seed"),
    "cli": ("main",),
}

MATRIX_CLASSES = ("DenseMatrix", "DualSparseMatrix")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _targets(module, attr):
    """(owner, attribute) pairs that hold the function named module.attr."""
    mod = importlib.import_module(f"rekbench.{module}")
    if "." in attr:
        cls, meth = attr.split(".")
        return [(getattr(mod, cls), meth)]
    if hasattr(mod, attr):
        original = getattr(mod, attr)
        # Every rekbench namespace that bound the same object looks it up there.
        return [
            (m, name)
            for key, m in sorted(sys.modules.items())
            if key == "rekbench" or key.startswith("rekbench.")
            for name, value in vars(m).items()
            if value is original
        ]
    return [(getattr(mod, cls), attr) for cls in MATRIX_CLASSES]


class _ThreadLog:
    """Spans and aggregates of one thread."""

    def __init__(self, thread_index, n_names):
        self.thread_index = thread_index
        self.ident = threading.get_ident()
        self.spans = array("q")  # name, start_ns, end_ns, parent span (-1: root)
        self.stack = []  # [span index, child ns] per open span
        self.calls = [0] * n_names
        self.self_ns = [0] * n_names
        self.total_ns = [0] * n_names
        self.counts = {}


class Tracer:
    """Install with install(), run the traced work, then uninstall()."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = []
        self._patches = []
        self._mat_row_bytes = {}
        self._observers = {
            "selection.build_index_set": self._observe_index_set,
            "updates.pair_geometry_from": self._observe_geometry,
            "linalg.mat_row": self._observe_mat_row,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        try:
            for name_id, name in enumerate(SPAN_NAMES):
                module, attr = name.split(".", 1)
                observer = self._observers.get(name)
                for owner, key in _targets(module, attr):
                    original = vars(owner)[key]
                    self._patches.append((owner, key, original))
                    setattr(owner, key, self._wrap(name_id, original, observer))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs), len(SPAN_NAMES))
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, name_id, fn, observer):
        tracer = self

        def traced(*args, **kwargs):
            log = tracer._log()
            spans, stack = log.spans, log.stack
            index = len(spans) // 4
            spans.extend((name_id, 0, 0, stack[-1][0] if stack else -1))
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end
                duration = end - start
                log.calls[name_id] += 1
                log.total_ns[name_id] += duration
                log.self_ns[name_id] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observer is not None:
                observer(log.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers (run after a span closes without raising) -------------------

    @staticmethod
    def _bump(counts, key, value=1):
        counts[key] = counts.get(key, 0) + value

    def _observe_index_set(self, counts, args, result):
        self._bump(counts, "index_set_size_sum", int(result.size))

    def _observe_geometry(self, counts, args, result):
        # Row pairs reach pair_geometry_from inside two_dim_row_coeffs, whose
        # ParallelPairError passes through the wrappers to the solver's 1-D
        # fallback; column pairs are tested on .parallel by the solver itself.
        if result.parallel:
            self._bump(counts, "parallel_pairs")

    def _observe_mat_row(self, counts, args, result):
        A, i = args
        self._bump(counts, "mat_row_bytes", int(self._bytes_per_row(A)[i]))

    def _bytes_per_row(self, A):
        """Bytes mat_row reads and writes, per row (computed, not measured)."""
        table = self._mat_row_bytes.get(id(A))
        if table is None:
            m, n = A.shape
            if A.is_sparse:
                # Row slice, every column slice in its support (index + value,
                # 16 B per entry) and the dense m-vector output.
                col_nnz = np.diff(A.csc_indptr)
                support = np.bincount(A.csr_rowids, weights=col_nnz[A.csr_indices], minlength=m)
                row_nnz = np.diff(A.csr_indptr)
                table = 16 * (row_nnz + support.astype(np.int64)) + 8 * m
            else:
                table = np.full(m, 8 * (m * n + n + m), dtype=np.int64)
            self._mat_row_bytes[id(A)] = table
        return table

    # -- results --------------------------------------------------------------

    def aggregates(self):
        """{name: (calls, self_ns, total_ns)} and merged counts, all threads."""
        agg = {}
        counts = {}
        for log in self._logs:
            for i, name in enumerate(SPAN_NAMES):
                c, s, t = agg.get(name, (0, 0, 0))
                agg[name] = (c + log.calls[i], s + log.self_ns[i], t + log.total_ns[i])
            for key, value in log.counts.items():
                counts[key] = counts.get(key, 0) + value
        return agg, counts

    def main_thread_self_ns(self):
        """Summed self time of every span recorded in the main thread."""
        ident = threading.main_thread().ident
        return sum(sum(log.self_ns) for log in self._logs if log.ident == ident)

    def write_spans(self, path):
        """Write every span as columns of a compressed .npz, with the name table."""
        threads, columns = [], []
        for log in self._logs:
            spans = np.frombuffer(log.spans, dtype=np.int64).reshape(-1, 4)
            columns.append(spans)
            threads.append(np.full(len(spans), log.thread_index, dtype=np.int64))
        spans = np.concatenate(columns) if columns else np.zeros((0, 4), dtype=np.int64)
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            thread=np.concatenate(threads) if threads else np.zeros(0, dtype=np.int64),
            name=spans[:, 0],
            start_ns=spans[:, 1],
            end_ns=spans[:, 2],
            parent=spans[:, 3],
        )


def per_layer_metrics(setup, timed, counts, traced_s, untraced_s, main_thread_self_s, jobs):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    setup and timed map span names to (calls, self_ns, total_ns).  Calls and
    self times cover the traced set-up and the traced round; the ratios
    cover the traced round only.
    """
    zero = (0, 0, 0)
    calls = {name: timed.get(name, zero)[0] for name in SPAN_NAMES}
    self_ns = {name: timed.get(name, zero)[1] for name in SPAN_NAMES}
    total_ns = {name: timed.get(name, zero)[2] for name in SPAN_NAMES}
    out = {}
    for module, fns in LAYERS.items():
        module_self_ns = 0
        for fn in fns:
            name = f"{module}.{fn}"
            fn_self_ns = self_ns[name] + setup.get(name, zero)[1]
            out[f"{name}.calls"] = (calls[name] + setup.get(name, zero)[0], "count")
            out[f"{name}.self_s"] = (fn_self_ns / 1e9, "s")
            module_self_ns += fn_self_ns
        out[f"{module}.self_s"] = (module_self_ns / 1e9, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    upkeep_ns = self_ns["linalg.mat_row"] + self_ns["linalg.mat_t_col"]
    picks = calls["selection.weighted_pick"] + calls["selection.weighted_pick_norms"]
    out.update(
        {
            # Computed from the matrix structure, not measured traffic.
            "linalg.mat_row.bytes_computed": (counts.get("mat_row_bytes", 0), "B"),
            "linalg.mat_row_mat_t_col.step_share": (ratio(upkeep_ns, total_ns["solvers.step"]), "fraction"),
            "selection.index_set_size_mean": (
                ratio(counts.get("index_set_size_sum", 0), calls["selection.build_index_set"]),
                "count",
            ),
            "selection.picks_per_step": (ratio(picks, calls["solvers.step"]), "picks/step"),
            "updates.parallel_frac": (
                ratio(counts.get("parallel_pairs", 0), calls["updates.pair_geometry_from"]),
                "fraction",
            ),
            "cli.busy_frac": (ratio(total_ns["solvers.solve"], jobs * total_ns["cli.main"]), "fraction"),
            "trace.solve_s": (traced_s, "s"),
            "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "fraction"),
            "trace.accounted_frac": (ratio(main_thread_self_s, traced_s), "fraction"),
        }
    )
    return out
