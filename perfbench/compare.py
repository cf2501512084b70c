#!/usr/bin/env python3
"""Compares two saved benchmark results metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Takes the records `run.py` keeps under `<target>/perfbench-results/` and
prints each metric's change as a share of the base value.  Warns when the
two results come from hosts with different core counts or different build
profiles, since wall-clock figures do not carry across them.
"""

import json
import sys


def main(base_path, new_path):
    base, new = (json.load(open(p)) for p in (base_path, new_path))
    for key in ("host_cores", "profile"):
        a, b = base["meta"].get(key), new["meta"].get(key)
        if a != b:
            print(f"WARNING: {key} differs: {a} in {base_path}, {b} in {new_path}; "
                  "wall-clock figures are not comparable", file=sys.stderr)
    if base["meta"].get("workload") != new["meta"].get("workload"):
        print("WARNING: the results come from different workloads", file=sys.stderr)
    for name, metric in base["result"]["metrics"].items():
        other = new["result"]["metrics"].get(name)
        if other is None:
            print(f"{name:32} missing from {new_path}")
            continue
        change = (other["value"] - metric["value"]) / metric["value"] if metric["value"] else float("nan")
        print(f"{name:32} {metric['value']:14.6g} -> {other['value']:14.6g} {metric['unit']:8} {change:+8.2%}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
