"""In-memory spans around calls into ``tgiw``'s public functions.

The tracer wraps functions from outside: :meth:`Tracer.install` replaces every
binding of a target function in the loaded ``tgiw`` modules (its home module,
re-exports, and names imported by other modules such as ``tgiw.cli``) with a
timing wrapper, and :meth:`Tracer.uninstall` puts the originals back.  Nothing
in ``src/`` is edited.  A span holds its name, start, end, parent span and job
id; spans are stored in flat arrays and written out once, at the end.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute); "Dataset" spans its validating __post_init__
TARGETS = (
    ("data.read_dataset_file", "tgiw.data", "read_dataset_file"),
    ("data.Dataset", "tgiw.data", "Dataset"),
    ("distribution.sample", "tgiw.distribution", "sample"),
    ("distribution.cdf", "tgiw.distribution", "cdf"),
    ("distribution.pdf", "tgiw.distribution", "pdf"),
    ("distribution.log_pdf", "tgiw.distribution", "log_pdf"),
    ("distribution.survival", "tgiw.distribution", "survival"),
    ("distribution.hazard", "tgiw.distribution", "hazard"),
    ("distribution.quantile", "tgiw.distribution", "quantile"),
    ("order_stats.os_density", "tgiw.order_stats", "os_density"),
    ("order_stats.joint_os_density", "tgiw.order_stats", "joint_os_density"),
    ("order_stats.min_max_joint_density", "tgiw.order_stats", "min_max_joint_density"),
    ("estimation.fit_mle", "tgiw.estimation", "fit_mle"),
    ("estimation.fit_lse", "tgiw.estimation", "fit_lse"),
    ("estimation.fit_wlse", "tgiw.estimation", "fit_wlse"),
    ("estimation.observed_information", "tgiw.estimation", "observed_information"),
    ("estimation.log_likelihood", "tgiw.estimation", "log_likelihood"),
    ("estimation.score", "tgiw.estimation", "score"),
    ("model_selection.compare", "tgiw.model_selection", "compare"),
    ("model_selection.ks_statistic", "tgiw.model_selection", "ks_statistic"),
    ("model_selection.lr_test", "tgiw.model_selection", "lr_test"),
)

FITS = ("estimation.fit_mle", "estimation.fit_lse", "estimation.fit_wlse")


def _points(args) -> int:
    """Points a distribution call evaluates: size of x or q, or n for ``sample``."""
    if len(args) < 2:
        return 0
    arg = args[1]
    return int(arg) if isinstance(arg, (int, np.integer)) else int(np.size(arg))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.points = array("q")
        self._stack: list[int] = []
        self.job_id = -1
        # per fit function: (iterations, converged, boundary_lambda) of each result
        self.fits: dict[str, list[tuple[int, bool, bool]]] = {name: [] for name in FITS}
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, points: int = 0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.points.append(points)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (for the runner's own calls)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        count_points = name.startswith("distribution.")
        fit_log = self.fits.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, _points(args) if count_points else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if fit_log is not None:
                fit_log.append((int(result.iterations), bool(result.converged), bool(result.boundary_lambda)))
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "tgiw" or k.startswith("tgiw.")]
        for name, modname, attr in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            if isinstance(orig, type):
                self._set(orig, "__post_init__", self._wrap(name, orig.__post_init__))
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time, median duration, and vector-call totals."""
        durations: dict[int, list[int]] = {}
        vec_ns: dict[int, int] = {}
        vec_points: dict[int, int] = {}
        for nid, s, e, pts in zip(self.name_id, self.start, self.end, self.points):
            durations.setdefault(nid, []).append(e - s)
            if pts > 1:
                vec_ns[nid] = vec_ns.get(nid, 0) + (e - s)
                vec_points[nid] = vec_points.get(nid, 0) + pts
        out = {}
        for nid, ds in durations.items():
            out[self.names[nid]] = {
                "calls": len(ds),
                "busy_ms": sum(ds) / 1e6,
                "p50_us": statistics.median(ds) / 1e3,
                "vector_ns": vec_ns.get(nid, 0),
                "vector_points": vec_points.get(nid, 0),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job,name,start_ns,end_ns,parent,points\n")
            for row in zip(self.job, self.name_id, self.start, self.end, self.parent, self.points):
                fh.write(f"{row[0]},{self.names[row[1]]},{row[2]},{row[3]},{row[4]},{row[5]}\n")
