"""Content-addressed compiled-program artifacts for `repro serve`.

A compiled program owns everything derived from it — call plans,
lexical addresses and quote values all live on its own nodes
(:mod:`repro.compiler.frontend`) — so an artifact is just the compiled
program pickled.  Pickle keeps the sharing within a blob, and
unpickling hands a worker a fully lowered program: parse, expansion,
validation, address resolution and plan interning all skipped.

Three layers:

- :func:`build_artifact` / :func:`hydrate_artifact` — (de)hydration
  of one program.
- :class:`ArtifactCache` — the server-side LRU, content-addressed on
  the program sha, with hit/miss/eviction/build counters flowing into
  a :class:`~repro.telemetry.metrics.MetricsRegistry`.
- :func:`resolve_program` — the worker-side entry: specs carry the
  blob over the existing pickle channel; each worker hydrates a given
  program once into the front end's per-process LRU of compiled
  programs (:func:`~repro.compiler.frontend.compiled_program`, bounded
  at the cache's default capacity) and serves repeats from it.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Dict, Optional

from ..compiler.frontend import (
    DEFAULT_CAPACITY,
    Source,
    clear_compiled,
    compiled_program,
    prepare_program,
    program_sha,
)
from ..syntax.ast import Expr

#: Artifact pickles are process-to-process within one host, never
#: persisted across versions — always use the newest protocol.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Bump when the blob layout changes; hydration rejects other versions.
ARTIFACT_VERSION = 2


def build_artifact(program: Source) -> bytes:
    """Run *program* through the front end, so hydrated workers never
    parse or lower it, and pickle it."""
    program = prepare_program(program)
    payload = {"version": ARTIFACT_VERSION, "program": program}
    return pickle.dumps(payload, protocol=PICKLE_PROTOCOL)


def hydrate_artifact(blob: bytes) -> Expr:
    """Unpickle an artifact; returns the compiled program, ready to
    inject into any machine without re-lowering.

    *blob* must come from :func:`build_artifact` in this server, over
    its own worker pipe: ``pickle.loads`` runs whatever a blob says,
    so one from a client, a file or another host is code execution."""
    payload = pickle.loads(blob)
    version = payload.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version: {version!r}")
    return payload["program"]


class ArtifactCache:
    """Server-side LRU of built artifacts, keyed by program sha.  The
    blob depends on nothing else: machines share one compiled
    program."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, metrics=None):
        if capacity < 1:
            raise ValueError("artifact cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "evictions": 0, "builds": 0,
        }
        self._metrics = metrics

    def _count(self, event: str, amount: int = 1) -> None:
        self._counters[event] += amount
        if self._metrics is not None:
            self._metrics.counter("artifact_cache", event=event).inc(amount)

    def lookup(self, sha: str) -> Optional[bytes]:
        """The cached blob for *sha*, or None; a hit refreshes LRU order."""
        blob = self._entries.get(sha)
        if blob is None:
            self._count("misses")
            return None
        self._entries.move_to_end(sha)
        self._count("hits")
        return blob

    def put(self, sha: str, blob: bytes) -> None:
        self._entries[sha] = blob
        self._entries.move_to_end(sha)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._count("evictions")

    def get_or_build(self, sha: str, *args) -> bytes:
        """The cached blob for *sha*, or build one with the last
        argument, a callable, and cache it.  Arguments between the two
        (the machine and stepper of older callers) are ignored.  The
        build may raise (e.g. program validation fails); nothing is
        cached then."""
        blob = self.lookup(sha)
        if blob is None:
            blob = args[-1]()
            self._count("builds")
            self.put(sha, blob)
        return blob

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sha: str) -> bool:
        return sha in self._entries

    def stats(self) -> Dict[str, int]:
        """Counter snapshot plus current size (the BENCH/`/metrics`
        ``cache`` section)."""
        stats = dict(self._counters)
        stats["entries"] = len(self._entries)
        stats["capacity"] = self.capacity
        return stats


# -- worker side -----------------------------------------------------------

def resolve_program(spec: dict):
    """The program to run for a job spec: the hydrated artifact when
    the spec carries one, else the source text (the cold path —
    ``run`` compiles it).  A worker hydrates a program once; repeats
    come from the front end's LRU, keyed on the spec's source text."""
    blob = spec.get("artifact")
    if blob is None:
        return spec["program"]
    return compiled_program(spec["program"], lambda: hydrate_artifact(blob))


def clear_hydrated() -> None:
    """Drop this process's compiled programs, hydrated ones among them
    (testing hygiene)."""
    clear_compiled()
