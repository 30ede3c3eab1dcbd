"""Self-check of the benchmark's correctness gates.

Run from the root of a checkout: python3 perfbench/selfcheck.py

Each check runs the shortest run of one workload at seed 0 against pins
with exactly one deliberate error, and requires the gate to count exactly
one failure per pass, so a broken gate cannot pass silently:

  catalog  one pinned catalog checksum is tampered
  verify   one verify input has its expected exit code flipped
  search   one built-in seed has a wrong alg42 reference g

It also checks that BENCHMARK.json declares exactly the metrics run.py
prints, with the same units. Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import run


def tamper_catalog(pins: run.Pins):
    pins.catalog["thm1-s3"][2] = "0" * 64


def flip_verify(pins: run.Pins):
    pins.verify["clean/thm1-s3.json"] = 2


def wrong_search(pins: run.Pins):
    pins.search["oa16-5-ma"]["g"] += 1


TAMPERS = {"catalog": tamper_catalog, "verify": flip_verify, "search": wrong_search}


def check_declared_metrics(root: Path) -> list[str]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        if declared != printed:
            problems.append(f"BENCHMARK.json {key} differs from what run.py prints")
    return problems


def main() -> int:
    root = Path.cwd()
    problems = check_declared_metrics(root)
    for workload, tamper in TAMPERS.items():
        pins = copy.deepcopy(run.Pins.load())
        tamper(pins)
        result, record = run.run(workload, 0, 1, False, pins, root)
        passes = len(record["passes"])
        ok = result["failed"] == passes and not result["correct"]
        print(f"{workload}: {result['failed']} failed in {passes} passes "
              f"({'caught' if ok else 'NOT CAUGHT'}): {record['failures'][:1]}")
        if not ok:
            problems.append(f"{workload}: tampered pin not counted exactly once per pass")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
