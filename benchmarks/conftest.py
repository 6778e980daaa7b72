"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
rendered artifact is printed (visible with ``pytest -s``) and written
under ``benchmarks/results/`` so EXPERIMENTS.md can cite stable files.
"""

from __future__ import annotations

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_bench_summary(name: str, log: dict) -> None:
    """Write one BENCH_*.json summary under ``benchmarks/results/``.

    Deterministic and atomic: keys are sorted so reruns with identical
    numbers produce byte-identical files, and the file is staged to a
    temp path and renamed into place so a reader (or an interrupted
    bench session) never sees a torn summary."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    target = os.path.join(RESULTS_DIR, name)
    staging = f"{target}.tmp.{os.getpid()}"
    with open(staging, "w") as handle:
        json.dump(log, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging, target)


class ArtifactWriter:
    """Stores rendered tables under benchmarks/results/."""

    def __init__(self):
        os.makedirs(RESULTS_DIR, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(RESULTS_DIR, name)
        with open(path, "w") as handle:
            handle.write(text.rstrip() + "\n")
        return path


@pytest.fixture(scope="session")
def artifacts():
    return ArtifactWriter()


def once(benchmark, function, *args, **kwargs):
    """Run a heavyweight regeneration exactly once under the
    benchmark's timer (sweeps should not be repeated dozens of
    times)."""
    return benchmark.pedantic(
        function, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
