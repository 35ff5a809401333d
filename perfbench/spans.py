"""Spans and counters recorded around rcls's public functions.

``Tracer.install()`` replaces each traced function, wherever an rcls module
holds a reference to it, with a wrapper that records a span (total and self
time, call count) and, for some layers, counts read off the arguments or
the result. ``Tracer.uninstall()`` puts the originals back. Spans nest
through a stack, so a span's self time is its duration minus that of the
spans it directly encloses.
"""

import os
import sys
import time
import warnings
from collections import defaultdict

# (module, attribute, span name). Methods are given as "Class.method".
TRACED = (
    ("rcls.linalg", "gram", "linalg.gram"),
    ("rcls.linalg", "spd_solve", "linalg.spd_solve"),
    ("rcls.coders", "fit_crc", "coders.fit_crc"),
    ("rcls.coders", "fit_procrc", "coders.fit_procrc"),
    ("rcls.coders", "CrcProjector.code", "coders.project"),
    ("rcls.coders", "ProCrcProjector.code", "coders.project"),
    ("rcls.coders", "omp", "coders.omp"),
    ("rcls.coders", "l1_solve", "coders.l1_solve"),
    ("rcls.classify", "classify_residual", "classify.residual"),
    ("rcls.classify", "classify_regularized_residual", "classify.residual"),
    ("rcls.classify", "fuse_coefficients", "classify.fuse"),
    ("rcls.classify", "score", "classify.score"),
    ("rcls.bench", "fit_method", "bench.fit_method"),
    ("rcls.bench", "run_experiment", "bench.run_experiment"),
    ("rcls.bench", "FittedSa.decide", "classify.sa_decide"),
    ("rcls.data", "synth", "data.synth"),
    ("rcls.data", "split", "data.split"),
    ("rcls.data", "normalize_columns", "data.normalize_columns"),
    ("rcls.data", "take_columns", "data.take_columns"),
    ("rcls.data", "load_csv", "data.load_csv"),
    ("rcls.data", "load_bin", "data.load_bin"),
    ("rcls.data", "save_csv", "data.save_csv"),
)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.sa_decisions = []  # (method, blocks, dense code, y, predicted)
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.total[name] += dur
            self.self_s[name] += dur - child
            self.counts[name + ".calls"] += 1

    def _wrap(self, name, fn):
        tracer = self
        if name == "coders.l1_solve":
            def wrapper(*args, **kwargs):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = tracer._span(name, fn, args, kwargs)
                tracer.counts[name + ".nonconverged"] += sum(
                    w.category.__name__ == "ConvergenceWarning" for w in caught
                )
                return out
        elif name == "coders.omp":
            def wrapper(*args, **kwargs):
                out = tracer._span(name, fn, args, kwargs)
                k = args[2] if len(args) > 2 else kwargs["k"]
                tracer.counts[name + ".atoms"] += len(out.support)
                tracer.counts[name + ".early_stops"] += len(out.support) < k
                return out
        elif name == "classify.sa_decide":
            def wrapper(state, code, y):
                out = fn(state, code, y)
                tracer.counts["classify.ties"] += out.tie
                tracer.counts["classify.dense_only"] += code.dense_only
                tracer.sa_decisions.append(
                    (state.method, state.blocks, code.dense, y, out.predicted_class)
                )
                return out
        elif name == "classify.residual":
            def wrapper(*args, **kwargs):
                out = tracer._span(name, fn, args, kwargs)
                tracer.counts["classify.ties"] += out.tie
                return out
        elif name in ("data.load_csv", "data.load_bin", "data.save_csv"):
            def wrapper(*args, **kwargs):
                out = tracer._span(name, fn, args, kwargs)
                path = args[-1] if args else kwargs["path"]
                tracer.counts[name + ".bytes"] += os.path.getsize(path)
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        for modname, attr, name in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in [m for k, m in sys.modules.items() if k == "rcls" or k.startswith("rcls.")]:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()
