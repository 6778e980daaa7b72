"""Step-rate regression gate.

Compares a freshly generated ``BENCH_step_rate.json`` against the
checked-in baseline and fails (exit 1) when any machine's step rate
under the default stepper regressed below ``threshold`` (default 0.9)
times the recorded figure.

Two comparison modes:

``normalized`` (default)
    Each machine's rate is divided by the *seed-stepper* rate measured
    in the same worker before comparing — the seed stepper is the
    fixed verbatim Figure 5 loop, so the quotient cancels the absolute
    speed of the host.  This is the mode CI uses: the checked-in
    baseline was recorded on different hardware, but a change that
    slows the fused loop shows up identically in the quotient.

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


def load_payload(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not payload.get("machines"):
        raise SystemExit(f"{path}: no per-machine step-rate entries")
    return payload


def rate_figure(entry: dict, mode: str) -> float:
    rate = entry["after_steps_per_second"]
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
        help="normalized: the default stepper's rate over the same "
        "session's seed rate (hardware-independent); absolute: raw "
        "steps/second",
    )
    args = parser.parse_args(argv)

    baseline = load_payload(args.baseline)["machines"]
    current = load_payload(args.current)["machines"]
    failures = []
    unit = "x-seed" if args.mode == "normalized" else "steps/s"
    for name in sorted(baseline):
        if name not in current:
            failures.append(name)
            print(f"FAIL {name}: missing from the current run")
            continue
        recorded = rate_figure(baseline[name], args.mode)
        measured = rate_figure(current[name], args.mode)
        quotient = measured / recorded
        status = "ok  " if quotient >= args.threshold else "FAIL"
        if quotient < args.threshold:
            failures.append(name)
        print(
            f"{status} {name:7s} {measured:12.1f} {unit} "
            f"vs baseline {recorded:12.1f} ({quotient:.2f}x, "
            f"threshold {args.threshold:.2f}x)"
        )
    if failures:
        print(
            f"step-rate regression: {', '.join(failures)} below "
            f"{args.threshold}x the recorded baseline"
        )
        return 1
    print(f"step rates within {args.threshold}x of the recorded baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
