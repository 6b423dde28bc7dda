#!/usr/bin/env python3
"""Deterministic counter gate: compare one fixed-work perfbench run with the
values committed in a BENCH_<workload>.json trajectory file.

    perfbench --workload long_dipr --requests 6 --seed 1 --trace 1 \
        | python3 tools/counter_gate.py BENCH_long_dipr.json

The trajectory file's "fixed_work_gate" entry names the run, its digest, the
cells that must repeat exactly (traversal work and result quality: a change
to what DIPRS visits, appends or returns moves them) and the cells that may
drift by a stated relative tolerance. Timings are not looked at. Exit status
is non-zero on any mismatch.
"""
import json
import re
import sys


def main() -> int:
    gate = json.load(open(sys.argv[1]))["fixed_work_gate"]
    lines = sys.stdin.read().splitlines()
    digest = next(
        (m.group(1) for m in (re.search(r"^# correct true .* digest (\w+)$", l) for l in lines) if m),
        None,
    )
    metrics = json.loads(lines[-1])["metrics"]

    failures = []
    if digest != gate["digest"]:
        failures.append(f"digest {digest} != {gate['digest']}")
    for name, want in gate["exact"].items():
        got = metrics[name]["value"]
        if got != want:
            failures.append(f"{name} {got!r} != {want!r}")
    for name, (want, tolerance) in gate["within"].items():
        got = metrics[name]["value"]
        if abs(got - want) > tolerance * abs(want):
            failures.append(f"{name} {got!r} not within {tolerance:.0%} of {want!r}")

    for failure in failures:
        print(f"counter gate: {failure}", file=sys.stderr)
    if not failures:
        print(f"counter gate: `{gate['command']}` matches {sys.argv[1]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
