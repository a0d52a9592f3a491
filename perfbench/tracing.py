"""Span tracing of mulab's layers from outside the package.

`instrumented(tracer)` replaces every public function and method of the six
layer modules with a wrapper that records a span, and puts the originals
back on exit.  A span holds its name, layer, start, end, parent and (for
iterator spans) the time spent producing items.  Self time is a span's
duration minus the durations of its children, so the self times of all
spans plus the time outside every root span add up to the traced wall time
exactly.

Allocation peaks come from `tracemalloc`, which sees numpy buffers.  It
slows Python-level code 7-20x, so it runs only inside the spans named in
`ALLOC_TRACKED`, and only when the tracer is built with `track_alloc=True`;
the benchmark uses such a tracer in a separate pass whose times it discards.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import sys
import time
import tracemalloc

LAYERS = (
    "sieves", "phases", "phase_sums", "symbolic_blocks", "arrangements",
    "exact_calculus",
)

# Called once per element (per n, per point, per coefficient) from inside the
# bulk calls; a span each would cost more than the work it times.  Their time
# is part of the enclosing span's self time.
PER_ELEMENT = frozenset({
    "frac", "value", "err_ulp_at", "err_bound", "describe", "side",
    "frac_part", "frac_rep", "real_to_float", "circle_dist", "lagrange_coeff",
    "classify_point", "hyperplane", "as_fractions",
})

# Spans whose allocation peak the allocation pass records.
ALLOC_TRACKED = frozenset({
    "sieves.sieve_mobius", "sieves.sieve_liouville", "sieves.sieve_phi",
    "sieves.load_cache", "phase_sums.weights_from_table",
    "symbolic_blocks.entropy_curve",
})

# Items pulled from a wrapped `frac_units` iterator per timed step.
ITER_CHUNK = 4096

_ITEM_PARAMS = ("count", "n_max")


class Span:
    __slots__ = ("name", "layer", "parent", "items", "start", "end", "dur",
                 "mem0", "mem_max", "peak")

    def __init__(self, name, layer, parent, items=None):
        self.name, self.layer, self.parent, self.items = name, layer, parent, items
        self.start = self.end = self.dur = 0
        self.mem0 = self.mem_max = self.peak = None

    def as_dict(self) -> dict:
        return {
            "name": self.name, "layer": self.layer, "parent": self.parent,
            "start_ns": self.start, "end_ns": self.end, "dur_ns": self.dur,
            "items": self.items, "peak_alloc_bytes": self.peak,
        }


class Tracer:
    """In-memory span tree of one traced pass."""

    def __init__(self, track_alloc: bool = False):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.track_alloc = track_alloc
        self._mem_open: list[Span] = []
        self._mem_owner: Span | None = None

    def enter(self, name: str, layer: str, items=None) -> int:
        idx = len(self.spans)
        sp = Span(name, layer, self.stack[-1] if self.stack else -1, items)
        self.spans.append(sp)
        self.stack.append(idx)
        if self.track_alloc and name in ALLOC_TRACKED:
            self._mem_enter(sp)
        sp.start = time.perf_counter_ns()
        return idx

    def exit(self, idx: int) -> None:
        end = time.perf_counter_ns()
        sp = self.spans[idx]
        sp.end = end
        sp.dur = end - sp.start
        if sp.mem0 is not None:
            self._mem_exit(sp)
        self.stack.pop()

    def timed_iter(self, iterator, name: str, layer: str):
        """Yield from `iterator`, charging the time spent producing items to
        an iterator span under whichever span consumes them."""
        spans_by_parent: dict[int, int] = {}
        while True:
            t0 = time.perf_counter_ns()
            parent = self.stack[-1] if self.stack else -1
            idx = spans_by_parent.get(parent)
            if idx is None:
                idx = spans_by_parent[parent] = len(self.spans)
                sp = Span(name, layer, parent)
                sp.start = t0
                self.spans.append(sp)
            self.stack.append(idx)
            try:
                chunk = list(itertools.islice(iterator, ITER_CHUNK))
            finally:
                self.stack.pop()
                t1 = time.perf_counter_ns()
                sp = self.spans[idx]
                sp.dur += t1 - t0
                sp.end = t1
            if not chunk:
                return
            yield from chunk

    # allocation peaks ------------------------------------------------------

    def _mem_boundary(self) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        for sp in self._mem_open:
            sp.mem_max = max(sp.mem_max, peak)
        tracemalloc.reset_peak()
        return cur

    def _mem_enter(self, sp: Span) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._mem_owner = sp
        sp.mem0 = sp.mem_max = self._mem_boundary()
        self._mem_open.append(sp)

    def _mem_exit(self, sp: Span) -> None:
        self._mem_boundary()
        sp.peak = sp.mem_max - sp.mem0
        self._mem_open.remove(sp)
        if self._mem_owner is sp:
            tracemalloc.stop()
            self._mem_owner = None


# ---------------------------------------------------------------------------
# installing and removing the wrappers


def _phase_shape(phase) -> str:
    kind = type(phase).__name__
    if kind == "PolyPhase":
        return "poly_rational" if phase.rational else "poly_fixed"
    return {"BracketPhase": "bracket", "TablePhase": "table"}.get(kind, "concat")


def _items_index(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None, None
    for key in _ITEM_PARAMS:
        if key in params:
            return params.index(key), key
    return None, None


def _wrap(tracer: Tracer, fn, layer: str, name: str | None, method: str | None):
    """`name` is fixed for functions; phase methods are named per call by the
    shape of the phase they run on."""
    pos, key = _items_index(fn)
    enter, leave = tracer.enter, tracer.exit
    frac_units = method == "frac_units"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name or f"{layer}.{_phase_shape(args[0])}.{method}"
        items = None
        if pos is not None:
            items = args[pos] if len(args) > pos else kwargs.get(key)
        idx = enter(span_name, layer, items)
        try:
            out = fn(*args, **kwargs)
        finally:
            leave(idx)
        if frac_units:
            unit, it = out
            return unit, tracer.timed_iter(it, span_name + ".iter", layer)
        return out

    return wrapper


def _patches(tracer: Tracer):
    """(owner, attribute, original, replacement) for every binding to wrap."""
    import mulab.phases

    phase_base = mulab.phases.Phase
    mulab_modules = [m for n, m in sorted(sys.modules.items())
                     if (n == "mulab" or n.startswith("mulab.")) and m is not None]
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"mulab.{layer}"]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or attr in PER_ELEMENT:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                new = _wrap(tracer, obj, layer, f"{layer}.{attr}", None)
                for owner in mulab_modules:
                    if vars(owner).get(attr) is obj:
                        out.append((owner, attr, obj, new))
            elif inspect.isclass(obj):
                is_phase = issubclass(obj, phase_base)
                for meth, raw in sorted(vars(obj).items()):
                    if meth.startswith("_") or meth in PER_ELEMENT:
                        continue
                    name = None if is_phase else f"{layer}.{attr}.{meth}"
                    if isinstance(raw, (staticmethod, classmethod)):
                        new = type(raw)(_wrap(tracer, raw.__func__, layer,
                                              f"{layer}.{attr}.{meth}", None))
                    elif inspect.isfunction(raw):
                        new = _wrap(tracer, raw, layer, name, meth)
                    else:
                        continue
                    out.append((obj, meth, raw, new))
    return out


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layers' public functions and methods for the `with` body."""
    patches = _patches(tracer)
    for owner, attr, _, new in patches:
        setattr(owner, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, old, _ in reversed(patches):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [sp.dur for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            own[sp.parent] -= sp.dur
    return own


def unattributed(spans, wall_ns: int) -> int:
    """Traced wall time outside every root span."""
    return wall_ns - sum(sp.dur for sp in spans if sp.parent < 0)


# ---------------------------------------------------------------------------
# per-layer metrics

MIB = float(1 << 20)

PER_LAYER_UNITS = {
    "sieves.sieve_mobius_s": "s",
    "sieves.sieve_liouville_s": "s",
    "sieves.sieve_phi_s": "s",
    "sieves.sieve_n_per_s": "1/s",
    "sieves.peak_alloc_mib": "MiB",
    "sieves.save_cache_s": "s",
    "sieves.load_cache_s": "s",
    "sieves.cache_bytes": "B",
    "sieves.mertens_trace_s": "s",
    "sieves.self_s": "s",
    "phase_sums.weights_from_table_s": "s",
    "phase_sums.weights_peak_alloc_mib": "MiB",
    "phase_sums.weighted_average_self_s": "s",
    "phase_sums.ap_correlation_self_s": "s",
    "phase_sums.short_interval_self_s": "s",
    "phase_sums.terms": "count",
    "phase_sums.self_s": "s",
    "phases.numerators_s": "s",
    "phases.poly_rational_s": "s",
    "phases.poly_fixed_s": "s",
    "phases.bracket_s": "s",
    "phases.table_s": "s",
    "phases.terms": "count",
    "phases.calls": "count",
    "phases.terms_per_s": "1/s",
    "symbolic_blocks.indicator_set_self_s": "s",
    "symbolic_blocks.entropy_curve_s": "s",
    "symbolic_blocks.entropy_curve_peak_alloc_mib": "MiB",
    "symbolic_blocks.index_blocks_calls": "count",
    "symbolic_blocks.bracket_labels_s": "s",
    "symbolic_blocks.self_s": "s",
    "arrangements.count_pieces_s": "s",
    "arrangements.count_pieces_p50_ms": "ms",
    "arrangements.count_pieces_p90_ms": "ms",
    "arrangements.count_pieces_samples": "count",
    "arrangements.generic_s": "s",
    "arrangements.degenerate_s": "s",
    "arrangements.pieces": "count",
    "arrangements.pieces_per_s": "1/s",
    "arrangements.self_s": "s",
    "exact_calculus.s": "s",
    "exact_calculus.frac_diff_equivalence_s": "s",
    "exact_calculus.calls": "count",
    "trace.traced_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


# Layer self times plus the time outside every span: they add up to
# trace.traced_wall_s.
SELF_TIME_METRICS = (
    "sieves.self_s", "phase_sums.self_s", "phases.numerators_s",
    "symbolic_blocks.self_s", "arrangements.self_s", "exact_calculus.s",
    "trace.unattributed_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(spans, wall_ns: int, facts: dict) -> dict:
    """Timing and count metrics of one traced pass.

    `facts` carries what the spans cannot see: `cache_bytes`, and for the
    arrangement batch `case_kinds` (one "generic"/"degenerate" per
    `count_pieces` call, in call order) and `pieces`.
    """
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0)
    by_name_self: dict[str, int] = {}
    by_name_dur: dict[str, int] = {}
    shape_self = {"poly_rational": 0, "poly_fixed": 0, "bracket": 0, "table": 0}
    calls: dict[str, int] = {}
    phase_terms = phase_calls = sum_terms = 0
    for sp, s_ns in zip(spans, own):
        layer_self[sp.layer] += s_ns
        by_name_self[sp.name] = by_name_self.get(sp.name, 0) + s_ns
        by_name_dur[sp.name] = by_name_dur.get(sp.name, 0) + sp.dur
        calls[sp.name] = calls.get(sp.name, 0) + 1
        if sp.layer != "phases":
            continue
        shape = sp.name.split(".")[1]
        if shape in shape_self:
            shape_self[shape] += s_ns
        parent = spans[sp.parent] if sp.parent >= 0 else None
        if sp.items is not None and (parent is None or parent.layer != "phases"):
            phase_calls += 1
            phase_terms += sp.items
            if parent is not None and parent.layer == "phase_sums":
                sum_terms += sp.items

    def dur(name):
        return by_name_dur.get(name, 0) / 1e9

    def own_s(name):
        return by_name_self.get(name, 0) / 1e9

    sieve_names = ("sieves.sieve_mobius", "sieves.sieve_liouville", "sieves.sieve_phi")
    sieve_n = sum(sp.items or 0 for sp in spans if sp.name in sieve_names)
    sieve_s = sum(dur(n) for n in sieve_names)
    piece_durs = [sp.dur / 1e9 for sp in spans if sp.name == "arrangements.count_pieces"]
    kinds = facts.get("case_kinds", [])
    if len(kinds) != len(piece_durs):
        raise ValueError(
            f"{len(piece_durs)} count_pieces spans but {len(kinds)} case kinds"
        )
    generic = sum(d for d, k in zip(piece_durs, kinds) if k == "generic")
    deciles = (statistics.quantiles(piece_durs, n=10, method="inclusive")
               if len(piece_durs) > 1 else [0.0] * 9)
    pieces_s = sum(piece_durs)
    numerators = layer_self["phases"] / 1e9
    return {
        "sieves.sieve_mobius_s": dur("sieves.sieve_mobius"),
        "sieves.sieve_liouville_s": dur("sieves.sieve_liouville"),
        "sieves.sieve_phi_s": dur("sieves.sieve_phi"),
        "sieves.sieve_n_per_s": _ratio(sieve_n, sieve_s),
        "sieves.save_cache_s": dur("sieves.save_cache"),
        "sieves.load_cache_s": dur("sieves.load_cache"),
        "sieves.cache_bytes": facts.get("cache_bytes", 0),
        "sieves.mertens_trace_s": dur("sieves.mertens_trace"),
        "sieves.self_s": layer_self["sieves"] / 1e9,
        "phase_sums.weights_from_table_s": dur("phase_sums.weights_from_table"),
        "phase_sums.weighted_average_self_s": own_s("phase_sums.weighted_average"),
        "phase_sums.ap_correlation_self_s": own_s("phase_sums.ap_correlation"),
        "phase_sums.short_interval_self_s": own_s("phase_sums.short_interval_sup_average"),
        "phase_sums.terms": sum_terms,
        "phase_sums.self_s": layer_self["phase_sums"] / 1e9,
        "phases.numerators_s": numerators,
        **{f"phases.{k}_s": v / 1e9 for k, v in shape_self.items()},
        "phases.terms": phase_terms,
        "phases.calls": phase_calls,
        "phases.terms_per_s": _ratio(phase_terms, numerators),
        "symbolic_blocks.indicator_set_self_s": own_s("symbolic_blocks.indicator_set"),
        "symbolic_blocks.entropy_curve_s": dur("symbolic_blocks.entropy_curve"),
        "symbolic_blocks.index_blocks_calls": calls.get("symbolic_blocks.index_blocks", 0),
        "symbolic_blocks.bracket_labels_s": dur("symbolic_blocks.bracket_second_difference_labels"),
        "symbolic_blocks.self_s": layer_self["symbolic_blocks"] / 1e9,
        "arrangements.count_pieces_s": pieces_s,
        "arrangements.count_pieces_p50_ms": 1e3 * deciles[4],
        "arrangements.count_pieces_p90_ms": 1e3 * deciles[8],
        "arrangements.count_pieces_samples": len(piece_durs),
        "arrangements.generic_s": generic,
        "arrangements.degenerate_s": pieces_s - generic,
        "arrangements.pieces": facts.get("pieces", 0),
        "arrangements.pieces_per_s": _ratio(facts.get("pieces", 0), pieces_s),
        "arrangements.self_s": layer_self["arrangements"] / 1e9,
        "exact_calculus.s": layer_self["exact_calculus"] / 1e9,
        "exact_calculus.frac_diff_equivalence_s": dur("exact_calculus.frac_diff_equivalence"),
        "exact_calculus.calls": sum(c for n, c in calls.items()
                                    if n.startswith("exact_calculus.")),
        "trace.traced_wall_s": wall_ns / 1e9,
        "trace.unattributed_s": unattributed(spans, wall_ns) / 1e9,
    }


def alloc_metrics(spans) -> dict:
    """Allocation peaks (MiB above the level at span entry) of the tracked spans."""

    def peak(names):
        vals = [sp.peak for sp in spans if sp.name in names and sp.peak is not None]
        return max(vals, default=0) / MIB

    return {
        "sieves.peak_alloc_mib": peak({"sieves.sieve_mobius", "sieves.sieve_liouville",
                                       "sieves.sieve_phi", "sieves.load_cache"}),
        "phase_sums.weights_peak_alloc_mib": peak({"phase_sums.weights_from_table"}),
        "symbolic_blocks.entropy_curve_peak_alloc_mib": peak({"symbolic_blocks.entropy_curve"}),
    }


def combine(per_pass: list[dict], alloc: dict, overhead_s: float) -> dict:
    """The metrics of the traced pass with the median wall time (the lower
    of the two middle ones), so that its self times still add up to its
    wall time, plus allocation peaks and the tracing overhead, in
    `PER_LAYER_UNITS` order."""
    walls = [m["trace.traced_wall_s"] for m in per_pass]
    merged = dict(per_pass[walls.index(statistics.median_low(walls))])
    merged.update(alloc)
    merged["trace.overhead_s"] = overhead_s
    return {k: merged[k] for k in PER_LAYER_UNITS}
