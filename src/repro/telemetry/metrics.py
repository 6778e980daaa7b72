"""The metrics registry: counters, gauges, histograms over labels.

Metric identity is (name, sorted label set) — the registry hands back
the same instrument object for the same identity, so hot loops can
hoist the lookup and pay one attribute bump per observation.  The
serialized form (:meth:`MetricsRegistry.as_dict`) is a plain JSON
dict keyed by ``name{k=v,...}`` strings; :meth:`MetricsRegistry.merge`
folds several such dumps together (counters and histograms add,
gauges keep the maximum), which is how the sweep harness aggregates
per-cell metrics coming back from worker processes.

The standard instrumentation (wired up by ``run_metered`` when a
registry is passed):

``steps{machine=,kind=}``           step mix by machine x step kind
``kont_depth{machine=}``            histogram of continuation depth
``restrict_calls/hits{machine=}``   environment-restrict memo hit rate
``gc_collections{machine=}``        applications of the GC rule that freed
``gc_reclaimed_locations{machine=}``  locations freed by the GC rule
``gc_reclaimed_words{machine=}``    store words freed by the GC rule, in
                                    the run's accounting and precision
``engine_canonical_fallbacks{machine=}``  delta-GC applications that
                                    needed the canonical trace
``engine_escape_fallback{machine=}``  1 when the run degraded permanently
``sup_space{machine=,accounting=}`` the measured sup (a gauge)
``steps_total{machine=}``           total transitions (a gauge)

``trace_run`` adds two blame instruments on top of the standard set:

``blame_samples{machine=}``         configurations the blame profiler
                                    decomposed (a counter)
``blame_peak_holders{machine=}``    distinct holders in the peak
                                    decomposition (a gauge)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Power-of-two bucket bounds for depth/size-shaped histograms.
DEFAULT_BUCKETS: Tuple[int, ...] = tuple(2 ** i for i in range(16))


def format_key(name: str, labels: Dict[str, str]) -> str:
    """``name{k=v,...}`` with labels sorted, the serialized identity."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`format_key`."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (merge keeps the maximum)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """A cumulative histogram with fixed upper bounds plus overflow."""

    __slots__ = ("bounds", "buckets", "count", "total", "max")

    def __init__(self, bounds: Tuple[int, ...] = DEFAULT_BUCKETS):
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0
        self.max = 0

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Instrument factory + serialization; see the module docstring."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: Dict[Tuple, Counter] = {}
        self._gauges: Dict[Tuple, Gauge] = {}
        self._histograms: Dict[Tuple, Histogram] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, str]) -> Tuple:
        return (name, tuple(sorted(labels.items())))

    def counter(self, name: str, **labels) -> Counter:
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: Tuple[int, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    # -- introspection ------------------------------------------------------

    def counters(self, name: Optional[str] = None):
        """Iterate (labels, Counter) pairs, optionally for one name."""
        for (metric, labels), instrument in self._counters.items():
            if name is None or metric == name:
                yield dict(labels), instrument

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> dict:
        counters = {
            format_key(name, dict(labels)): instrument.value
            for (name, labels), instrument in sorted(self._counters.items())
        }
        gauges = {
            format_key(name, dict(labels)): instrument.value
            for (name, labels), instrument in sorted(self._gauges.items())
        }
        histograms = {}
        for (name, labels), instrument in sorted(self._histograms.items()):
            histograms[format_key(name, dict(labels))] = {
                "count": instrument.count,
                "sum": instrument.total,
                "max": instrument.max,
                "buckets": {
                    f"<={bound}": count
                    for bound, count in zip(instrument.bounds, instrument.buckets)
                }
                | {"+Inf": instrument.buckets[-1]},
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    @staticmethod
    def merge(dumps: Iterable[dict]) -> dict:
        """Fold several :meth:`as_dict` dumps: counters and histograms
        add, gauges keep the maximum (the sweep-aggregate reading of
        "worst cell")."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, int] = {}
        histograms: Dict[str, dict] = {}
        for dump in dumps:
            for key, value in dump.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
            for key, value in dump.get("gauges", {}).items():
                if key not in gauges or value > gauges[key]:
                    gauges[key] = value
            for key, hist in dump.get("histograms", {}).items():
                into = histograms.get(key)
                if into is None:
                    histograms[key] = {
                        "count": hist["count"],
                        "sum": hist["sum"],
                        "max": hist["max"],
                        "buckets": dict(hist["buckets"]),
                    }
                else:
                    into["count"] += hist["count"]
                    into["sum"] += hist["sum"]
                    into["max"] = max(into["max"], hist["max"])
                    for bucket, count in hist["buckets"].items():
                        into["buckets"][bucket] = (
                            into["buckets"].get(bucket, 0) + count
                        )
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


def step_mix(source, machine: Optional[str] = None) -> Dict[str, int]:
    """The ``steps{...}`` counters as a {step-kind: count} dict, from a
    live registry or a serialized dump, optionally for one machine."""
    mix: Dict[str, int] = {}
    if isinstance(source, MetricsRegistry):
        for labels, instrument in source.counters("steps"):
            if machine is not None and labels.get("machine") != machine:
                continue
            kind = labels.get("kind", "?")
            mix[kind] = mix.get(kind, 0) + instrument.value
        return mix
    for key, value in source.get("counters", {}).items():
        name, labels = parse_key(key)
        if name != "steps":
            continue
        if machine is not None and labels.get("machine") != machine:
            continue
        kind = labels.get("kind", "?")
        mix[kind] = mix.get(kind, 0) + value
    return mix


#: The candidate superinstructions the gen-2 stepper pass can fuse,
#: each with the transient step kinds it eliminates (the counters of
#: ``steps{kind=...}`` it would fold into neighbouring transitions).
#: Corpus share over those kinds is the ranking signal the pass was
#: built from — see DESIGN.md section 7, "Gen-2 fusions".
FUSION_CANDIDATES: Tuple[dict, ...] = (
    {
        "fusion": "quicken-var",
        "kinds": ("expr:Var",),
        "superinstruction": "read the binding by lexical (slot, frame"
        " path) address instead of hashing the name",
    },
    {
        "fusion": "push-simple-operand",
        "kinds": ("kont:Push", "expr:Var", "expr:Quote"),
        "superinstruction": "evaluate a run of Var/Quote operands"
        " without materializing the intermediate push frames",
    },
    {
        "fusion": "nested-primop-call",
        "kinds": ("expr:Call", "kont:CallK"),
        "superinstruction": "evaluate an all-simple nested call of a"
        " non-control primop as one batched transition",
    },
    {
        "fusion": "if-select",
        "kinds": ("expr:If", "kont:Select"),
        "superinstruction": "fuse the test evaluation with the select"
        " step, skipping the transient select frame",
    },
    {
        "fusion": "beta-body",
        "kinds": ("kont:Return",),
        "superinstruction": "apply a closure whose body is an"
        " all-simple primop call without materializing its frames",
    },
)


def suggest_fusions(
    source, machine: Optional[str] = None, top: Optional[int] = None
) -> List[dict]:
    """Rank :data:`FUSION_CANDIDATES` by their share of the recorded
    step mix — the ``repro trace --suggest-fusions`` feedback loop.

    *source* is a live :class:`MetricsRegistry` or a serialized dump
    (the ``--metrics`` JSON); *machine* restricts the mix to one
    machine's counters; *top* keeps only the first *top* suggestions.
    Returns dicts with the candidate's ``fusion`` name, the ``steps``
    it covers, its corpus ``share`` (0.0-1.0 of all recorded
    transitions; 0-step candidates are dropped), the contributing
    ``kinds``, and the ``superinstruction`` description, ordered by
    share descending (ties broken by declaration order, which lists
    the fusions the gen-2 pass implements first).
    """
    mix = step_mix(source, machine)
    total = sum(mix.values())
    suggestions: List[dict] = []
    for rank, candidate in enumerate(FUSION_CANDIDATES):
        covered = sum(mix.get(kind, 0) for kind in candidate["kinds"])
        if covered <= 0:
            continue
        suggestions.append(
            {
                "fusion": candidate["fusion"],
                "steps": covered,
                "share": covered / total if total else 0.0,
                "kinds": candidate["kinds"],
                "superinstruction": candidate["superinstruction"],
                "_rank": rank,
            }
        )
    suggestions.sort(key=lambda entry: (-entry["share"], entry["_rank"]))
    for entry in suggestions:
        del entry["_rank"]
    if top is not None:
        suggestions = suggestions[:top]
    return suggestions


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FUSION_CANDIDATES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_key",
    "parse_key",
    "step_mix",
    "suggest_fusions",
]
