"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in *every*
``slicebound`` module namespace that holds it (``bounds`` binds
``seifert_graph`` at import, ``cli`` binds ``s_invariant``, and so on), so
calls are caught whichever module makes them.  A wrapper records one span per
call; a span's self time is its duration minus the durations of the spans it
caused.  Two wrappers also read the values the oracle returns, to count the
work the oracle did.  A traced name the package no longer has is reported as
absent, never as zero.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Layer module -> traced functions, in the package's own layering.
LAYERS = {
    "notation": ("parse_pd", "diagram_from_pd", "braid_closure", "random_braid"),
    "diagram": ("validate", "mirror"),
    "seifert": ("oriented_resolution", "seifert_graph", "aux_graph", "two_coloring"),
    "bounds": ("bound_U", "bound_Delta", "bounds_report"),
    "lee_oracle": ("build_slice", "_check_slice", "canonical_cycles", "_column_echelon",
                   "filtration_profile", "s_invariant"),
    "cli": ("run_fuzz", "run_table", "cmd_bound", "cmd_oracle"),
}
SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Exact counts derived from the trace: name -> (unit, spans it needs).
COUNTS = {
    "seifert.oriented_resolution.calls_per_case": ("calls/case", ("seifert.oriented_resolution",)),
    "lee_oracle.build_slice.calls_per_knot": ("calls/knot", ("lee_oracle.build_slice",)),
    "lee_oracle._column_echelon.calls_per_knot": ("calls/knot", ("lee_oracle._column_echelon",)),
    "lee_oracle.dim_total": ("count", ("lee_oracle.build_slice",)),
    "lee_oracle.din_rank": ("count", ("lee_oracle._column_echelon",)),
    "lee_oracle.pivot_fill_mean": ("nnz/pivot", ("lee_oracle._column_echelon",)),
    "lee_oracle.pivot_fill_max": ("nnz", ("lee_oracle._column_echelon",)),
    "lee_oracle.coeff_bits_max": ("bit", ("lee_oracle._column_echelon",)),
    "oracle.tight_share": ("ratio", ()),
    "oracle.knots": ("count", ()),
}


class Tracer:
    """Span and count recorder for one traced round of a workload."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self.slices = self.dims = 0
        self.echelons = self.rank = self.nnz = self.fill_max = self.bits_max = 0

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "slicebound" or n.startswith("slicebound.")]
        observers = {"lee_oracle.build_slice": self._observe_slice,
                     "lee_oracle._column_echelon": self._observe_echelon}
        for span in SPANS:
            layer, name = span.split(".", 1)
            fn = getattr(sys.modules.get(f"slicebound.{layer}"), name, None)
            if not callable(fn):
                self.absent.append(span)
                continue
            self.calls[span], self.self_s[span] = 0, 0.0
            wrapper = self._wrap(span, fn, observers.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _wrap(self, span, fn, observe):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[span] += 1
                self_s[span] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                start = perf_counter()
                observe(result)
                if stack:  # reading the result is tracing cost, not the caller's
                    stack[-1][0] += perf_counter() - start
            return result

        return wrapper

    def _observe_slice(self, slice_) -> None:
        self.slices += 1
        self.dims += slice_.dim(-1) + slice_.dim(0) + slice_.dim(1)

    def _observe_echelon(self, pivots) -> None:
        cols = list(pivots.values())
        fill = [len(col) for col in cols]
        bits = max((abs(v).bit_length() for col in cols for v in col.values()), default=0)
        self.echelons += 1
        self.rank += len(cols)
        self.nnz += sum(fill)
        self.fill_max = max(self.fill_max, max(fill, default=0))
        self.bits_max = max(self.bits_max, bits)

    def counts(self, cases: int, knots: int, tight: int) -> dict[str, float]:
        """The exact counts of this round; ratios with a zero base read 0."""

        def ratio(a, b):
            return a / b if b else 0

        calls = self.calls
        values = {
            "seifert.oriented_resolution.calls_per_case":
                ratio(calls.get("seifert.oriented_resolution", 0), cases),
            "lee_oracle.build_slice.calls_per_knot":
                ratio(calls.get("lee_oracle.build_slice", 0), knots),
            "lee_oracle._column_echelon.calls_per_knot":
                ratio(calls.get("lee_oracle._column_echelon", 0), knots),
            "lee_oracle.dim_total": ratio(self.dims, self.slices),
            "lee_oracle.din_rank": ratio(self.rank, self.echelons),
            "lee_oracle.pivot_fill_mean": ratio(self.nnz, self.rank),
            "lee_oracle.pivot_fill_max": self.fill_max,
            "lee_oracle.coeff_bits_max": self.bits_max,
            "oracle.tight_share": ratio(tight, knots),
            "oracle.knots": knots,
        }
        values = {name: v for name, v in values.items() if not set(self.absent) & set(COUNTS[name][1])}
        values.update({f"{span}.calls": n for span, n in calls.items()})
        return values
