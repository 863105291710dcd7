"""Compare two result documents of ``run.py`` against the bounds in
``BENCHMARK.json``: ``compare.py PARENT.json CHANGE.json``.

One row per workload, one cell per end-to-end metric: how much worse
the change's median is than the parent's, as a share of the parent's,
and a verdict.  ``ok`` is within the bound, ``REGRESSED`` beyond it.
Where the run-to-run spread of either side is wider than the bound the
cell reads ``unresolved`` instead, unless every run of the change is
better than every run of the parent.  Documents taken with different
settings are refused.  Exit code: 0 nothing regressed, 1 something
did (or an op failed), 2 the documents cannot be compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: provenance fields that must agree for a comparison to mean anything
SETTINGS = ("seed", "seconds", "pair_seconds", "orb_share", "warmup_s",
            "setups", "python", "nproc", "cpus_allowed")


def untraced_values(entry: dict, metric: str) -> list:
    return [run["metrics"][metric]["value"] for run in entry["runs"]
            if not run["trace"] and metric in run["metrics"]]


def spread(values: list):
    """Interquartile range over the median; the full range when there
    are too few runs for quartiles; None from a single run."""
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / mid
    return (max(values) - min(values)) / mid


def judge(parent: list, change: list, better: str, bound: float) -> tuple:
    """(share by which the change is worse, verdict) for one cell."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse = sign * (statistics.median(change) - base) / base
    spreads = [s for s in (spread(parent), spread(change)) if s is not None]
    if spreads and max(spreads) > bound:
        if all(sign * c < sign * p for c in change for p in parent):
            return worse, "ok"
        return worse, "unresolved"
    return worse, "ok" if worse <= bound else "REGRESSED"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fh:
        parent = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    differing = [key for key in SETTINGS
                 if parent["provenance"].get(key)
                 != change["provenance"].get(key)]
    if differing:
        for key in differing:
            print(f"settings differ: {key}: "
                  f"{parent['provenance'].get(key)!r} vs "
                  f"{change['provenance'].get(key)!r}")
        print("refusing to compare")
        return 2
    print(f"parent {parent['provenance']['git_sha'][:12]}  "
          f"change {change['provenance']['git_sha'][:12]}  "
          f"seed {parent['provenance']['seed']}")
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        before = parent["workloads"].get(name, {"status": "absent"})
        after = change["workloads"].get(name, {"status": "absent"})
        if before["status"] != "ok" or after["status"] != "ok":
            print(f"{name:<18} parent: {before['status']}; "
                  f"change: {after['status']}")
            continue
        cells = []
        for metric in spec["end_to_end"]:
            old = untraced_values(before, metric["name"])
            new = untraced_values(after, metric["name"])
            if not old or not new:
                cells.append(f"{metric['name']} absent")
                continue
            worse, verdict = judge(old, new, metric["better"],
                                   metric["bound"])
            if verdict == "REGRESSED":
                status = 1
            cells.append(f"{metric['name']} {worse:+.1%} {verdict}")
        failed = sum(run["failed"] for run in after["runs"])
        if failed:
            status = 1
            cells.append(f"FAILED OPS {failed}")
        print(f"{name:<18} " + " | ".join(cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
