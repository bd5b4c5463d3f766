#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the checked-in snapshot.

Usage: bench_diff.py <baseline.json> <current.json> [--threshold 0.20]

Understands the snapshot schemas the bench suite writes:

  risa-bench-des/v4    events/s of the DES run (one cell)
  risa-bench-scale/v1  ops/s per (racks x algorithm) cell
  risa-bench-gen/v1    one VMs/s cell

Prints a throughput comparison per cell and emits a GitHub Actions
`::warning::` annotation for every cell that dropped more than the
threshold below the baseline. Always exits 0 on well-formed input:
machines and run sizes differ between the checked-in snapshot and a CI
smoke run, so this is a tripwire, not a gate. The two files must share
a schema.

Malformed input is a hard error (exit 1), never a silently-green run: a
missing or unreadable snapshot, an unknown schema, or an envelope with
zero cells all abort. An empty envelope used to sail through as "all
cells within threshold", which is exactly the failure mode a tripwire
must not have.
"""

import argparse
import json
import sys

# schema -> (display name, unit, cell extractor).
SCHEMAS = {
    "risa-bench-des/v4": (
        "DES",
        "events/s",
        lambda doc: {("run", "lane"): r["events_per_sec"] for r in doc["runs"]},
    ),
    "risa-bench-scale/v1": (
        "scheduling scale",
        "ops/s",
        lambda doc: {
            (str(r["racks"]), r["algorithm"]): r["ops_per_sec"] for r in doc["rows"]
        },
    ),
    "risa-bench-gen/v1": (
        "trace generation",
        "VMs/s",
        lambda doc: {("generate", "synthetic"): doc["vms_per_sec"]},
    ),
}


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(
            f"{path}: cannot read snapshot: {e.strerror or e} "
            "(regenerate with `risa-cli bench --json --out .`)"
        )
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON: {e}")
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        sys.exit(f"{path}: unexpected schema {schema!r}")
    name, unit, extract = SCHEMAS[schema]
    try:
        cells = extract(doc)
    except (KeyError, TypeError) as e:
        sys.exit(f"{path}: malformed {schema} envelope: {e!r}")
    if not cells:
        sys.exit(
            f"{path}: {schema} envelope has zero cells; an empty snapshot "
            "compares green against anything and defeats the tripwire"
        )
    return schema, name, unit, cells


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.20)
    args = ap.parse_args()

    bschema, name, unit, base = load(args.baseline)
    cschema, _, _, cur = load(args.current)
    if bschema != cschema:
        sys.exit(f"schema mismatch: {args.baseline} is {bschema}, {args.current} is {cschema}")

    regressed = []
    print(f"{name} {unit} vs {args.baseline} (warn below -{args.threshold:.0%}):")
    for key in sorted(base):
        a, b_label = key
        b = base[key]
        c = cur.get(key)
        if c is None:
            regressed.append(f"{a}/{b_label}: cell missing from {args.current}")
            continue
        delta = c / b - 1.0
        flag = " <-- REGRESSION" if delta < -args.threshold else ""
        print(f"  {a:>12}/{b_label:<8} {b:>12.0f} -> {c:>12.0f}  ({delta:+7.1%}){flag}")
        if flag:
            regressed.append(f"{a}/{b_label}: {b:.0f} -> {c:.0f} {unit} ({delta:+.1%})")
    for r in regressed:
        print(f"::warning::{name} throughput regression: {r}")
    if not regressed:
        print("all cells within threshold")


if __name__ == "__main__":
    main()
