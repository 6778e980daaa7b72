"""Step-rate regression gate.

Compares a freshly generated ``BENCH_step_rate.json`` against the
checked-in baseline and fails (exit 1) when any machine's fused-loop
step rate, or its gen-2 step rate (the default stepper with tier-up
disabled), regressed below ``threshold`` (default 0.9) times the
recorded figure, or when any machine's gen-3 corpus-weighted
gen3/gen2 ratio fell below ``threshold`` times the recorded ratio
(the gen3/gen2 quotient is measured within one session, so it is
hardware-independent by construction), or when any cell's cold
ratio ``cold_over_gen2`` — the first run of a fresh parse under the
default stepper over the same under gen-2, a paired in-run ratio —
falls below ``COLD_FLOOR``: compile cost cannot hide behind a
warm-up.

Two comparison modes:

``normalized`` (default)
    Each machine's fused and gen-2 rates are divided by the
    *seed-stepper* rate measured in the same worker before comparing
    — the seed stepper
    is the fixed verbatim Figure 5 loop, so the quotient cancels the
    absolute speed of the host.  This is the mode CI uses: the
    checked-in baseline was recorded on different hardware, but a
    change that slows the fused loop shows up identically in the
    quotient.

``absolute``
    Raw steps/second against the baseline — only meaningful when the
    baseline was recorded on the same machine (local perf work).

Usage::

    python benchmarks/check_step_rate.py \
        BASELINE.json benchmarks/results/BENCH_step_rate.json
    python benchmarks/check_step_rate.py --mode absolute old.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_THRESHOLD = 0.9

#: Minimum cold default-stepper/gen-2 rate ratio of every gen-3 cell.
COLD_FLOOR = 0.75


def load_payload(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not payload.get("machines"):
        raise SystemExit(f"{path}: no per-machine step-rate entries")
    return payload


def check_gen3(baseline: dict, current: dict, threshold: float) -> list:
    """Gate the gen-3 tier: each machine's corpus-weighted gen3/gen2
    ratio must stay within *threshold* of the recorded one.  Skipped
    (empty failure list) when the baseline predates the gen-3 tier;
    a current file missing the section while the baseline has it is a
    regression."""
    recorded = (baseline.get("gen3") or {}).get("machines")
    if not recorded:
        return []
    measured = (current.get("gen3") or {}).get("machines") or {}
    failures = []
    for name in sorted(recorded):
        before = recorded[name]["corpus_weighted"]
        entry = measured.get(name)
        if entry is None:
            failures.append(f"gen3/{name}")
            print(f"FAIL gen3/{name}: missing from the current run")
            continue
        after = entry["corpus_weighted"]
        quotient = after / before
        status = "ok  " if quotient >= threshold else "FAIL"
        if quotient < threshold:
            failures.append(f"gen3/{name}")
        print(
            f"{status} gen3/{name:7s} corpus {after:8.3f}x gen2 "
            f"vs baseline {before:8.3f}x ({quotient:.2f}x, "
            f"threshold {threshold:.2f}x)"
        )
    return failures


def check_cold(current: dict) -> list:
    """Gate the cold column: every measured gen-3 cell's
    ``cold_over_gen2`` must reach ``COLD_FLOOR``.  A cell without the
    column fails: the gate cannot price what was not measured."""
    measured = (current.get("gen3") or {}).get("machines") or {}
    failures = []
    for name in sorted(measured):
        for workload, cell in sorted(measured[name]["cells"].items()):
            ratio = cell.get("cold_over_gen2")
            if ratio is None or ratio < COLD_FLOOR:
                failures.append(f"cold/{name}/{workload}")
                status = "FAIL"
            else:
                status = "ok  "
            print(
                f"{status} cold/{name:7s} {workload:26s} "
                f"{ratio if ratio is not None else 'missing'} x gen2 "
                f"(floor {COLD_FLOOR:.2f}x)"
            )
    return failures


#: The per-machine rates gated against the baseline: the default
#: stepper (fused) and gen-2 alone, each over the same worker's seed
#: rate in normalized mode.
GATED_RATES = (
    ("fused", "after_steps_per_second"),
    ("gen2", "gen2_steps_per_second"),
)


def rate_figure(entry: dict, key: str, mode: str) -> float:
    rate = entry[key]
    if mode == "absolute":
        return rate
    return rate / entry["before_steps_per_second"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="recorded BENCH_step_rate.json")
    parser.add_argument("current", help="freshly generated BENCH_step_rate.json")
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="minimum current/baseline quotient (default 0.9)",
    )
    parser.add_argument(
        "--mode", choices=("normalized", "absolute"), default="normalized",
        help="normalized: fused rate over the same session's seed rate "
        "(hardware-independent); absolute: raw steps/second",
    )
    args = parser.parse_args(argv)

    baseline_payload = load_payload(args.baseline)
    current_payload = load_payload(args.current)
    baseline = baseline_payload["machines"]
    current = current_payload["machines"]
    failures = []
    unit = "x-seed" if args.mode == "normalized" else "steps/s"
    for name in sorted(baseline):
        if name not in current:
            failures.append(name)
            print(f"FAIL {name}: missing from the current run")
            continue
        for label, key in GATED_RATES:
            recorded = rate_figure(baseline[name], key, args.mode)
            measured = rate_figure(current[name], key, args.mode)
            quotient = measured / recorded
            status = "ok  " if quotient >= args.threshold else "FAIL"
            if quotient < args.threshold:
                failures.append(name if label == "fused" else
                                f"{label}/{name}")
            print(
                f"{status} {name:7s} {label:5s} {measured:12.1f} {unit} "
                f"vs baseline {recorded:12.1f} ({quotient:.2f}x, "
                f"threshold {args.threshold:.2f}x)"
            )
    failures.extend(
        check_gen3(baseline_payload, current_payload, args.threshold)
    )
    failures.extend(check_cold(current_payload))
    if failures:
        print(
            f"step-rate regression: {', '.join(failures)} below "
            f"{args.threshold}x the recorded baseline or the "
            f"{COLD_FLOOR}x cold floor"
        )
        return 1
    print(
        f"step rates within {args.threshold}x of the recorded baseline, "
        f"cold ratios at or above {COLD_FLOOR}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
