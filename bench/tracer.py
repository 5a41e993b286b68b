"""Call tracing from outside the program: wrap public functions of h1geom.

Every binding of a wrapped function in a loaded ``h1geom`` module is
replaced, so callers that did ``from .surface import adapted_frame`` go
through the wrapper too.  Nothing is recorded per call: each call adds
its count, duration and self time to the edge (function, parent function),
which keeps memory bounded however hot a leaf such as ``r_family`` or
``eval_dual`` is.  Self time is duration minus the time covered by wrapped
children; the program is single-threaded, so children nest strictly.

A target missing from the program (renamed or removed) is skipped and
reads as zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "h1geom"
# (module, attribute path) of every timed function.
TIMED = (
    ("expr", "eval_dual"),
    ("surface", "adapted_frame"),
    ("surface", "frame_derivatives"),
    ("surface", "pushforward_frame"),
    ("curvature", "transverse_sample"),
    ("gaussbonnet", "gb_residual"),
    ("gaussbonnet", "convergence_study"),
    ("quadrature", "integrate_2d"),
    ("quadrature", "integrate"),
    ("quadrature", "gauss_segment"),
    ("rotsurf", "build_mesh"),
    ("rotsurf", "sample_generating_curve"),
    ("rotsurf", "r_family"),
    ("rotsurf", "ThetaC.__call__"),
    ("export", "write_obj"),
    ("export", "write_csv"),
    ("export", "write_json_report"),
    ("cli", "main"),
)
# Constructors counted (not timed) through their dataclass __post_init__.
CONSTRUCTED = (("hgroup", "Point"), ("hgroup", "FrameVec"))
QUADRATURE_ENTRIES = ("quadrature.integrate_2d", "quadrature.integrate", "quadrature.gauss_segment")


class _Edge:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Installs wrappers into the loaded h1geom modules and aggregates them."""

    def __init__(self):
        self.stack = [["<job>", 0.0]]  # [name, time covered by children]
        self.edges: dict[tuple[str, str], _Edge] = {}
        self.counts: Counter = Counter()
        self.calls_by_cmd: Counter = Counter()  # (function, subcommand) -> calls
        self.cmd = ""
        self._undo: list = []

    # -- span bookkeeping ---------------------------------------------------

    def timed(self, name: str, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if before is not None:
                args = before(parent[0], args)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(name, parent[0], exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                edge = tracer.edges.get(key)
                if edge is None:
                    edge = tracer.edges[key] = _Edge()
                edge.calls += 1
                edge.total += duration
                edge.self += duration - frame[1]
                tracer.calls_by_cmd[(name, tracer.cmd)] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _on_error(self, name: str, parent: str, exc: Exception) -> None:
        if name in QUADRATURE_ENTRIES and not parent.startswith("quadrature."):
            if type(exc).__name__ == "QuadratureError":
                self.counts["quadrature.errors"] += 1

    def _count_integrand(self, parent: str, args):
        """Wrap the callable of an integral entered from outside quadrature."""
        if parent.startswith("quadrature.") or not args or not callable(args[0]):
            return args
        counts = self.counts
        counts["quadrature.integrals"] += 1
        f = args[0]

        def counted(*a):
            counts["quadrature.integrand_evals"] += 1
            return f(*a)

        return (counted,) + tuple(args[1:])

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every h1geom module global bound to ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._undo.append((namespace, key, original))

    def _set_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        modules = {name: sys.modules.get(f"{PACKAGE}.{name}") for name, _ in TIMED + CONSTRUCTED}
        for mod_name, path in TIMED:
            module = modules.get(mod_name)
            name = f"{mod_name}.{path.replace('.__call__', '')}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or attr not in cls.__dict__:
                    continue
                self._set_method(cls, attr, self.timed(name, self._hit_counter(cls.__dict__[attr], name)))
                continue
            original = getattr(module, path, None)
            if original is None:
                continue
            before = self._count_integrand if name in QUADRATURE_ENTRIES else None
            self._rebind(original, self.timed(name, original, before=before, after=self._after(name)))
        for mod_name, cls_name in CONSTRUCTED:
            cls = getattr(modules.get(mod_name), cls_name, None)
            if cls is not None and "__post_init__" in cls.__dict__:
                self._set_method(cls, "__post_init__", self._constructed(cls.__dict__["__post_init__"], f"{mod_name}.{cls_name}"))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- per-function extras --------------------------------------------------

    def _hit_counter(self, method, name: str):
        counts = self.counts

        @functools.wraps(method)
        def call(obj, v, *args, **kwargs):
            cache = getattr(obj, "_cache", None)
            if cache is not None and v in cache:
                counts[f"{name}.hits"] += 1
            return method(obj, v, *args, **kwargs)

        return call

    def _constructed(self, post_init, name: str):
        counts = self.counts

        @functools.wraps(post_init)
        def wrapper(obj):
            counts[f"{name}.constructed"] += 1
            return post_init(obj)

        return wrapper

    def _after(self, name: str):
        counts = self.counts
        if name == "rotsurf.sample_generating_curve":
            def after(args, result):
                counts["rotsurf.polyline_points"] += len(result)
            return after
        if name.startswith("export.write_"):
            def after(args, result):
                counts["export.bytes"] += Path(args[0]).stat().st_size
            return after
        return None

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e.calls for (n, _), e in self.edges.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(e.self for (n, _), e in self.edges.items() if n == name)

    def calls_in(self, name: str, cmds) -> int:
        return sum(self.calls_by_cmd[(name, cmd)] for cmd in cmds)
