"""Span tracer that wraps torusma's layer functions from outside the package.

Modules import layer functions by name (`from .geometry import complex_hessian`),
so one function has a binding in every module that uses it.  `Tracer.install`
replaces every such binding -- in all loaded `torusma.*` modules and in the
`numpy.fft` / `scipy.fft` namespaces -- with a wrapper that records a span,
and `Tracer.uninstall` puts the original objects back, so untraced calls run
the unmodified code.

A span is (id, parent id, name, start, end, attributes).  Spans nest strictly
in the single-threaded benchmark worker, so a span's self time is its
duration minus the durations of its direct children.
"""

import sys
import time

import numpy as np

# defining module -> functions traced as "<layer>.<name>"
LAYER_FUNCTIONS = {
    "geometry": ("complex_hessian", "inverse_quarter_laplacian"),
    "pluripotential": ("ma_measure", "psh_defect"),
    "capacity": ("estimate_capacity",),
    "regularize": ("psh_repair", "mollify", "kiselman_legendre", "build_kernel"),
    "solver": ("solve_ma",),
    "certify": ("hoelder_certificate",),
    "gridio": ("write_grid",),
}

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft", "hfft2",
             "ihfft2", "hfftn", "ihfftn")

# Krylov solvers the Newton step may bind from scipy.sparse.linalg
KRYLOV_NAMES = ("lgmres", "gmres", "cg", "minres", "bicgstab", "gcrotmk", "cgs",
                "qmr", "tfqmr")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    # -- wrappers ----------------------------------------------------------

    def _wrap_layer(self, name, func):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
                if name == "solver.solve_ma":
                    span.attrs["iterations"] = result.iterations
                elif name == "capacity.estimate_capacity":
                    span.attrs["evaluated"] = result.iterations
                elif name == "gridio.write_grid":
                    span.attrs["bytes"] = args[1].values.nbytes
                return result
            finally:
                self.close(span)
        return traced

    def _wrap_fft(self, func):
        def traced(a, *args, **kwargs):
            # a transform built from other public transforms counts once
            if self._stack and self._stack[-1].name == "geometry.fft":
                return func(a, *args, **kwargs)
            span = self.open("geometry.fft")
            try:
                out = func(a, *args, **kwargs)
                # points of the real-space grid the transform covers
                span.attrs["points"] = max(np.size(a), np.size(out))
                return out
            finally:
                self.close(span)
        return traced

    def _wrap_krylov(self, func):
        from scipy.sparse.linalg import LinearOperator, aslinearoperator

        def traced(A, b, *args, **kwargs):
            span = self.open("solver.krylov")
            op = aslinearoperator(A)
            counter = [0]

            def matvec(x):
                counter[0] += 1
                return op.matvec(x)

            counted = LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            try:
                x, info = func(counted, b, *args, **kwargs)
                span.attrs["unconverged"] = int(info != 0)
                return x, info
            finally:
                span.attrs["matvecs"] = counter[0]
                self.close(span)
        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions; returns self."""
        import numpy.fft
        import scipy.fft
        import scipy.sparse.linalg
        import torusma

        pkg = torusma.__name__
        originals = {}  # id(original) -> (original, wrapper)
        for mod_name, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"{pkg}.{mod_name}"]
            for name in names:
                func = getattr(module, name)
                originals[id(func)] = (func, self._wrap_layer(f"{mod_name}.{name}", func))
        for namespace in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                func = getattr(namespace, name, None)
                if func is not None and id(func) not in originals:
                    originals[id(func)] = (func, self._wrap_fft(func))
        for name in KRYLOV_NAMES:
            func = getattr(scipy.sparse.linalg, name, None)
            if func is not None:
                originals[id(func)] = (func, self._wrap_krylov(func))

        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == pkg or n.startswith(pkg + "."))]
        namespaces += [numpy.fft, scipy.fft]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])
        return self

    def uninstall(self):
        for namespace, attr, value in reversed(self._patched):
            setattr(namespace, attr, value)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive and self seconds, summed attributes.

        Inclusive time and attributes count only spans with no ancestor of the
        same name, so recursion (solve_ma retrying itself) is not counted twice.
        """
        by_id = {s.id: s for s in self.spans}
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            dur = s.end - s.start
            agg["calls"] += 1
            agg["self_s"] += dur - child_time.get(s.id, 0.0)
            ancestor = by_id.get(s.parent)
            while ancestor is not None and ancestor.name != s.name:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                agg["incl_s"] += dur
                for key, value in s.attrs.items():
                    agg[key] = agg.get(key, 0) + value
        return out
