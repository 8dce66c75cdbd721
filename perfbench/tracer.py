"""Per-layer tracing of padicsep from outside the package.

The tracer replaces public functions of the padicsep modules with timing
wrappers, in every ``padicsep.*`` namespace that binds the same function
object, and restores the originals afterwards.  The program itself is not
changed: its functions look up these names in module globals at call time,
so calls across module boundaries (and within a module) go through the
wrappers.

Per wrapped function ``M.F`` the tracer keeps ``calls``, ``total_s`` (the
span) and ``self_s`` (the span minus wrapped child spans).  A recursive
function's ``total_s`` counts nested calls again; its ``self_s`` does not.
Coarse spans (CLI calls, census calls, generator samples, and the analyses
the benchmark opens itself) are kept one by one with their parent; hot
functions are only aggregated.  Outcome counters are read from return values
and exceptions, never from inside the program.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# Layer -> public functions whose calls cross module boundaries.
WRAPPED = {
    "census": ("disc_census", "sep_census", "measure_estimate"),
    "intpoly": ("discriminant_coeffs", "resultant", "rational_roots", "is_irreducible",
                "poly_irreducible_mod", "kronecker_factor", "squarefree_part"),
    "linalg": ("bareiss_det", "lll_reduce", "solve_mod_prime"),
    "roots": ("min_conjugate_separation", "difference_poly", "newton_polygon", "zp_roots",
              "hensel_lift", "profile_at_zp_root"),
    "lattice": ("generate", "build_gamma", "short_vectors", "eisenstein_twist"),
    "cli": ("main",),
}
# Cheap enough to count on every call, too hot to time.
COUNTED = {"padic": ("valuation",)}
COARSE = {"cli.main", "census.disc_census", "census.sep_census",
          "census.measure_estimate", "lattice.generate"}
CERT_STAGES = ("degree-1", "rational-root", "eisenstein", "irreducible-mod-l",
               "factor-found", "exhaustive-factor-search")
OUTCOME_COUNTERS = ("lattice.short_vectors.lll", "lattice.generate.degenerate",
                    "roots.zp_roots.precision_exhausted", "census.records_seen",
                    "padic.valuation.calls")


def _record_outcome(counts: Counter, key: str, result=None, exc=None) -> None:
    if exc is not None:
        name = type(exc).__name__
        if key == "lattice.generate" and name == "DegenerateSample":
            counts["lattice.generate.degenerate"] += 1
        elif key == "roots.zp_roots" and name == "PrecisionExhausted":
            counts["roots.zp_roots.precision_exhausted"] += 1
        return
    if key == "intpoly.is_irreducible":
        counts["intpoly.is_irreducible.cert." + result.certificate] += 1
    elif key == "lattice.short_vectors" and result.method == "lll":
        counts["lattice.short_vectors.lll"] += 1
    elif key in ("census.disc_census", "census.sep_census"):
        counts["census.records_seen"] += result.records_seen


class Tracer:
    """Installs the wrappers on ``enter`` and removes them on ``exit``."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # open calls: [child seconds, span id or None]
        self._patches: list[tuple] = []  # (namespace, attribute, original) while installed
        self.patched: list[tuple] = []  # (namespace name, attribute, original) once restored
        self._valuation_calls = [0]
        self._t0 = 0.0

    # --- spans ----------------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def span(self, name: str):
        """Context manager for a coarse span opened by the benchmark itself."""
        return _Span(self, name)

    def _timed(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        counts = self.counts
        coarse = key in COARSE
        parent_span = self._parent_span
        t0 = self._t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if coarse:
                span_id = len(spans)
                spans.append(None)
                parent = parent_span()
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _record_outcome(counts, key, exc=exc)
                raise
            finally:
                end = perf_counter()
                dt = end - start
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if coarse:
                    spans[span_id] = (span_id, parent, key, start - t0, end - t0)
            _record_outcome(counts, key, result=result)
            return result

        return wrapper

    def _counted(self, fn):
        box = self._valuation_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- install / restore ----------------------------------------------------

    def _namespaces(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "padicsep" or name.startswith("padicsep."))]

    def _patch(self, module_name: str, attr: str, make):
        owner = sys.modules["padicsep." + module_name]
        original = getattr(owner, attr)
        replacement = make(original)
        for ns in self._namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, name, original))
                    setattr(ns, name, replacement)

    def __enter__(self):
        self._t0 = perf_counter()
        for module_name, attrs in WRAPPED.items():
            for attr in attrs:
                key = f"{module_name}.{attr}"
                self._patch(module_name, attr, lambda fn, key=key: self._timed(key, fn))
        for module_name, attrs in COUNTED.items():
            for attr in attrs:
                self._patch(module_name, attr, self._counted)
        return self

    def __exit__(self, *exc_info):
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self.patched = [(ns.__name__, name, original) for ns, name, original in self._patches]
        self._patches = []
        self.counts["padic.valuation.calls"] = self._valuation_calls[0]
        return False

    # --- results --------------------------------------------------------------

    def span_durations(self, name: str) -> list[float]:
        return [end - start for _, _, key, start, end in self.spans if key == name]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, every key always present."""
        out: dict[str, tuple[float, str]] = {}
        module_self: dict[str, float] = {}
        for module_name, attrs in WRAPPED.items():
            module_self[module_name] = 0.0
            for attr in attrs:
                key = f"{module_name}.{attr}"
                calls, total, self_s = self.stats.get(key, (0, 0.0, 0.0))
                out[key + ".calls"] = (calls, "count")
                out[key + ".total_s"] = (total, "s")
                out[key + ".self_s"] = (self_s, "s")
                module_self[module_name] += self_s
        for module_name, value in module_self.items():
            out[module_name + ".self_s"] = (value, "s")
        for stage in CERT_STAGES:
            key = "intpoly.is_irreducible.cert." + stage
            out[key] = (self.counts.get(key, 0), "count")
        for key in OUTCOME_COUNTERS:
            out[key] = (self.counts.get(key, 0), "count")
        p50, tail, pct = latency_summary(self.span_durations("lattice.generate"))
        out["lattice.generate.p50_ms"] = (p50 * 1000, "ms")
        out["lattice.generate.tail_ms"] = (tail * 1000, "ms")
        out["lattice.generate.tail_pct"] = (pct, "%")
        return out

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly between two traced runs."""
        return {name: value for name, (value, unit) in self.metrics().items()
                if unit == "count"}


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.span_id = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._parent_span()
        self.frame = [0.0, self.span_id]
        tr._stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        tr = self.tracer
        end = perf_counter()
        tr._stack.pop()
        if tr._stack:
            tr._stack[-1][0] += end - self.start
        tr.spans[self.span_id] = (self.span_id, self.parent, self.name,
                                  self.start - tr._t0, end - tr._t0)
        return False


def latency_summary(durations: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile) of span durations.

    The tail is the highest percentile that still has at least ten samples
    beyond it; with ten or fewer samples there is no tail and all three
    values are 0.
    """
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    k = len(ordered)
    mid = k // 2
    p50 = ordered[mid] if k % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    if k <= 10:
        return p50, 0.0, 0.0
    idx = k - 11  # ten samples lie beyond this one
    return p50, ordered[idx], 100.0 * (idx + 1) / k
