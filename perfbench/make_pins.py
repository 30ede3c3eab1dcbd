"""Regenerate the pins in perfbench/pins from the program in this checkout.

Run from the root of a checkout: python3 perfbench/make_pins.py

The pins are the reference outputs the benchmark's gates compare against,
so regenerate them only when a change is meant to alter those outputs, and
say so where the change is recorded. What each pin is:

  catalog_index_seed0.csv  index.csv of a plain `goa catalog --rng-seed 0`
  verify_expected.csv      every verify input with its expected exit code:
                           0 for a clean catalog file, 2 for its copy with
                           one corrupted cell
  search_seed0.json        alg42 at the benchmark's restart count and seed 0:
                           the group count g and the sha256 of the winning
                           generator matrix for each built-in seed
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    pins = run.PINS_DIR
    with tempfile.TemporaryDirectory(dir=root / run.WORK_SUBDIR.parent) as tmp:
        subprocess.run([sys.executable, "-m", "goa", "catalog", "--out", tmp, "--rng-seed", "0"],
                       cwd=root, env=run.child_env(root), stdout=subprocess.DEVNULL, check=True)
        index = (Path(tmp) / "index.csv").read_text()
    (pins / "catalog_index_seed0.csv").write_text(index)

    lines = ["input,exit_code"]
    for row in index.splitlines()[1:]:
        name = row.split(",", 1)[0]
        lines += [f"clean/{name}.json,0", f"corrupt/{name}.json,2"]
    (pins / "verify_expected.csv").write_text("\n".join(lines) + "\n")

    p = run.spawn(root, "search", 0, "plain", [], timeout=run.RUN_DEADLINE_S)
    references = {name: {"g": p.outputs[name]["g"],
                         "generator_sha256": p.outputs[name]["generator_sha256"]}
                  for name in run.SEARCH_SEEDS}
    (pins / "search_seed0.json").write_text(json.dumps(
        {"restarts": run.SEARCH_RESTARTS, "seed": 0, "references": references}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
