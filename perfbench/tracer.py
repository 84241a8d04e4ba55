"""Per-layer spans recorded from outside the library.

:class:`Tracer` replaces every public function of every ``meansfield``
module, and the LAPACK entry points ``numpy.linalg.eigh``,
``numpy.linalg.eigvalsh`` and ``scipy.linalg.eigh``, with a timing
wrapper at every name the function is bound to in any loaded module:
its defining module, the package re-export, each ``from .x import y``
copy in another library module (``means._chain`` looks ``power_mean``
up in ``means``) and the benchmark's own imports. The library itself
is not edited.

Each span records its inclusive time and its self time (inclusive time
minus the time of the spans it opened). Spans are kept in memory as
per-function totals; the caller reads and resets them once per pass.
The tracer is single-threaded: evaluation runs with ``workers = 1``.
"""

import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# h values whose iterations and time are reported one by one; the grid
# ends at +-1 are closed forms and the geometric mean (h = 0) has its own
# metrics.
REPORTED_H = (-0.75, -0.5, -0.25, -0.1, 0.1, 0.25, 0.5, 0.75)

CLASSIFIER_FITS = ("mdm_fit", "mdmf_fit", "mf_fit", "ts_lr_fit")
CLASSIFIER_SCORES = ("mdm_score", "mdmf_score", "mf_score", "ts_lr_score")


def h_key(h):
    return f"h{float(h):g}"


def library_modules():
    """Every loaded ``meansfield`` module, the package included."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "meansfield"
                                  or n.startswith("meansfield."))]


def public_functions():
    """``{"module.name": function}`` for each public module-level
    function, keyed by its defining module."""
    out = {}
    for mod in library_modules():
        for name, value in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                out[f"{mod.__name__.split('.')[-1]}.{name}"] = value
    return out


def _n_matrices(a):
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Timing wrappers installed over the library's bindings."""

    def __init__(self):
        self._patched = []   # (namespace, attribute, original)
        self._originals = {}  # id(original function) -> span name
        self.reset()

    def reset(self):
        """Drop the totals gathered so far."""
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self._stack = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, fn, on_result=None, on_error=None):
        tracer = self

        def span(*args, **kwargs):
            child = [0.0]
            tracer._stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    on_error(args, kwargs)
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                else:
                    tracer.top_level_s += dt
                tracer.calls[name] += 1
                tracer.incl[name] += dt
                tracer.self_time[name] += dt - child[0]
            if on_result is not None:
                on_result(result, args, kwargs, dt)
            return result

        return span

    def _count(self, key, n=1):
        self.counts[key] += n

    # -- hooks that read work counts from arguments and results ----------

    def _hooks(self, name):
        def h_of(args, kwargs):
            return kwargs["h"] if "h" in kwargs else args[1]

        if name == "means.power_mean":
            def ok(res, args, kwargs, dt):
                key = h_key(h_of(args, kwargs))
                self._count("power_mean_iters", res.iterations)
                self._count(f"power_mean_iters.{key}", res.iterations)
                self.incl[f"means.power_mean.{key}"] += dt

            def failed(args, kwargs):
                self._count("power_mean_failures")
            return ok, failed
        if name == "means.geometric_mean":
            return (lambda res, a, k, dt: self._count(
                "geometric_mean_iters", res.iterations)), None
        if name == "spatial.apply_filter":
            return (lambda res, a, k, dt: self._count(
                "apply_filter_matrices", _n_matrices(a[1]))), None
        if name == "evaluation.run_pipeline":
            return (lambda res, a, k, dt: self._count(
                "folds", len(res.rows))), None
        if name == "archive.read_archive":
            def read(res, args, kwargs, dt):
                path = kwargs["path"] if "path" in kwargs else args[0]
                self._count("archive_read_bytes", os.path.getsize(path))
            return read, None
        return None, None

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding, in any loaded module, of every public
        library function and of the LAPACK eigensolvers."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import scipy.linalg

        wrappers = {}
        for name, fn in public_functions().items():
            ok, failed = self._hooks(name)
            wrappers[id(fn)] = self._wrap(name, fn, ok, failed)
            self._originals[id(fn)] = name
        for fn, label, key in (
                (np.linalg.eigh, "lapack.numpy_eigh", "eigh_matrices"),
                (np.linalg.eigvalsh, "lapack.numpy_eigvalsh",
                 "eigvalsh_matrices"),
                (scipy.linalg.eigh, "lapack.scipy_eigh", "eigh_matrices")):
            wrappers[id(fn)] = self._wrap(label, fn, self._lapack_hook(key))
            self._originals[id(fn)] = label
        for ns, attr, value in self._bindings():
            self._patched.append((ns, attr, value))
            setattr(ns, attr, wrappers[id(value)])

    def _lapack_hook(self, count_key):
        def ok(res, args, kwargs, dt):
            self._count(count_key, _n_matrices(args[0]))
        return ok

    def _bindings(self):
        """``(module, attribute, original)`` for every module attribute
        bound to a function the tracer wraps."""
        found = []
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if id(value) in self._originals:
                    found.append((mod, attr, value))
        return found

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def unwrapped_bindings(self):
        """Names still bound to an original function: empty when every
        binding was replaced."""
        missed = [f"{mod.__name__}.{attr}"
                  for mod, attr, _ in self._bindings()]
        return missed + [f"{name} (never wrapped)"
                         for name, fn in public_functions().items()
                         if id(fn) not in self._originals]

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of everything recorded since the last
        :meth:`reset`, without the ``trace.*`` ratios."""
        c, t, s, n = self.calls, self.incl, self.self_time, self.counts
        eighs = ("lapack.numpy_eigh", "lapack.scipy_eigh")
        m = {
            "geometry.eigh_calls": sum(c[k] for k in eighs),
            "geometry.eigh_matrices": n["eigh_matrices"],
            "geometry.eigh_s": sum(t[k] for k in eighs),
            "geometry.eigvalsh_calls": c["lapack.numpy_eigvalsh"],
            "geometry.eigvalsh_matrices": n["eigvalsh_matrices"],
            "geometry.eigvalsh_s": t["lapack.numpy_eigvalsh"],
            "means.power_mean_calls": c["means.power_mean"],
            "means.power_mean_s": t["means.power_mean"],
            "means.power_mean_iters": n["power_mean_iters"],
            "means.power_mean_failures": n["power_mean_failures"],
            "means.geometric_mean_calls": c["means.geometric_mean"],
            "means.geometric_mean_s": t["means.geometric_mean"],
            "means.geometric_mean_iters": n["geometric_mean_iters"],
            "means.build_mean_field_self_s": s["means.build_mean_field"],
            "covariance.oas_calls": c["covariance.oas_covariance"],
            "covariance.oas_s": t["covariance.oas_covariance"],
            "spatial.adcsp_fit_self_s": s["spatial.adcsp_fit"],
            "spatial.csp_gevd_s": t["spatial.csp_gevd"],
            "spatial.pham_ajd_calls": c["spatial.pham_ajd"],
            "spatial.pham_ajd_s": t["spatial.pham_ajd"],
            "spatial.apply_filter_s": t["spatial.apply_filter"],
            "spatial.apply_filter_matrices": n["apply_filter_matrices"],
            "classifiers.fit_self_s": sum(
                s[f"classifiers.{f}"] for f in CLASSIFIER_FITS),
            "classifiers.lda_fit_s": t["classifiers.lda_fit"],
            "classifiers.ts_lr_fit_self_s": s["classifiers.ts_lr_fit"],
            "classifiers.distance_features_calls":
                c["classifiers.distance_features"],
            "classifiers.distance_features_s":
                t["classifiers.distance_features"],
            "classifiers.score_calls": sum(
                c[f"classifiers.{f}"] for f in CLASSIFIER_SCORES),
            "classifiers.score_s": sum(
                t[f"classifiers.{f}"] for f in CLASSIFIER_SCORES),
            "evaluation.folds": n["folds"],
            "evaluation.run_pipeline_self_s": s["evaluation.run_pipeline"],
            "archive.read_s": t["archive.read_archive"],
            "archive.read_bytes": n["archive_read_bytes"],
            "reports.save_s": (t["reports.save_score_table"]
                               + t["reports.save_meta_report"]),
            "stats.meta_compare_s": t["stats.meta_compare"],
            "cli.main_self_s": s["cli.main"],
        }
        for h in REPORTED_H:
            key = h_key(h)
            m[f"means.power_mean_iters.{key}"] = n[f"power_mean_iters.{key}"]
            m[f"means.power_mean_s.{key}"] = t[f"means.power_mean.{key}"]
        return m

    def span_table(self):
        """``(name, calls, inclusive s, self s)`` rows, slowest first."""
        return sorted(((k, n, self.incl[k], self.self_time[k])
                       for k, n in self.calls.items() if n),
                      key=lambda r: -r[2])
