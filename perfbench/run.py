"""The goa benchmark: catalog, verify and search workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload {catalog,verify,search} --seed N \
      --seconds S --trace {0,1}

It runs one pass at a time, each in a fresh child process
(child.py) that calls goa in-process, and keeps starting passes while the
next one, at the median length so far, still fits in S seconds. Every pass
goes through the correctness gates below; the gates run outside the timed
section. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with times in reference seconds (speed.py); with --trace 1
the passes alternate untraced and traced and the metrics are the per-layer
ones. The line before it records the machine, the environment and the
parameters of the run.

Inputs come from --seed only: the catalog rng seed, the cell corrupted in
each verify input, and the alg42 seed. Outputs are checked against the pins
in perfbench/pins (perfbench/README.md says how they were made). Generated
files go to .bench_build/goa-perfbench inside the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import loop_samples, to_reference

BENCH_DIR = Path(__file__).resolve().parent
PINS_DIR = BENCH_DIR / "pins"
WORK_SUBDIR = Path(".bench_build") / "goa-perfbench"

ALG42_ENTRY = "alg42-16-5"
SEARCH_SEEDS = ("oa243-6-ma", "oa16-5-ma", "oa16-5-ma-alt")
SEARCH_RESTARTS = 5000  # per built-in seed; sized so one search pass is a few seconds
MIN_PASSES = {"catalog": 1, "verify": 1, "search": 2}  # search compares two passes
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 165.0  # a run must end within 180 s

END_TO_END = [
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("gf.ext_field.calls", "count"),
    ("gf.ext_field.builds", "count"),
    ("gf.ext_field.self_s", "s"),
    ("gf.find_primitive_polys.calls", "count"),
    ("gf.find_primitive_polys.self_s", "s"),
    ("gf.span.calls", "count"),
    ("gf.span.rows", "count"),
    ("gf.span.self_s", "s"),
    ("gf.row_reduce.calls", "count"),
    ("gf.row_reduce.self_s", "s"),
    ("gf.null_space.self_s", "s"),
    ("gf.mat_mul.calls", "count"),
    ("gf.mat_mul.self_s", "s"),
    ("designs.check_strength.calls", "count"),
    ("designs.check_strength.fails", "count"),
    ("designs.check_strength.tuples", "count"),
    ("designs.check_strength.tuples_per_s", "1/s"),
    ("designs.check_strength.self_s", "s"),
    ("designs.check_strength.t2.tuples", "count"),
    ("designs.check_strength.t2.self_s", "s"),
    ("designs.check_strength.t3plus.self_s", "s"),
    ("designs.max_strength.calls", "count"),
    ("designs.max_strength.checks_per_call", "ratio"),
    ("designs.p_of_d.calls", "count"),
    ("designs.p_of_d.triples", "count"),
    ("designs.p_of_d.self_s", "s"),
    ("designs.wlp.calls", "count"),
    ("designs.wlp.self_s", "s"),
    ("designs.expand_generator.rows", "count"),
    ("designs.expand_generator.self_s", "s"),
    ("designs.verify_claims.checks", "count"),
    ("designs.verify_claims.self_s", "s"),
    ("designs.annotate.self_s", "s"),
    ("constructions.self_s", "s"),
    ("constructions.rank_primitive_polys.calls", "count"),
    ("constructions.rank_primitive_polys.self_s", "s"),
    ("search.algorithm_42.self_s", "s"),
    ("search.restarts", "count"),
    ("search.restarts_per_s", "1/s"),
    ("search.g_best", "count"),
    ("serialize.dumps.self_s", "s"),
    ("serialize.save_json.self_s", "s"),
    ("serialize.bytes_written", "bytes"),
    ("serialize.load_json.self_s", "s"),
    ("serialize.bytes_read", "bytes"),
    ("cli.self_s", "s"),
    ("cli.cpu_s", "s"),
    ("cli.verify.p50_s", "s"),
    ("cli.verify.p90_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Pins: the expected outputs every gate compares against.


@dataclass
class Pins:
    catalog_text: str  # index.csv of a plain `goa catalog --rng-seed 0`
    catalog: dict[str, list[str]]  # name -> index.csv fields
    verify: dict[str, int]  # verify input -> expected exit code
    search: dict[str, dict]  # built-in seed -> {"g", "generator_sha256"} at seed 0
    search_restarts: int

    @classmethod
    def load(cls) -> "Pins":
        text = (PINS_DIR / "catalog_index_seed0.csv").read_text()
        rows = list(csv.reader(text.splitlines()))[1:]
        with open(PINS_DIR / "verify_expected.csv", newline="") as fh:
            verify = {row["input"]: int(row["exit_code"]) for row in csv.DictReader(fh)}
        search = json.loads((PINS_DIR / "search_seed0.json").read_text())
        return cls(text, {row[0]: row for row in rows}, verify,
                   search["references"], search["restarts"])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads: input preparation, child arguments and the per-pass gate.


@dataclass
class Pass:
    mode: str  # "plain" or "traced"
    setup_s: float  # reference seconds (speed.py)
    setup_raw_s: float
    wall_s: float
    wall_ref_s: float
    cpu_s: float
    rss_mb: float
    outputs: dict
    layers: dict | None
    env: dict
    elapsed_s: float  # whole child lifetime, used to plan the next pass


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


class Catalog:
    """`goa catalog` over the full entry list: the write path."""

    def __init__(self, root, work, seed, pins):
        self.work, self.seed, self.pins = work / "catalog", seed, pins

    def child_args(self, i):
        out, rebuild = self.work / f"pass{i}", self.work / f"rebuild{i}"
        for d in (out, rebuild):
            shutil.rmtree(d, ignore_errors=True)
        return ["--out", str(out), "--rebuild", str(rebuild)]

    def check(self, i, p: Pass, first: Pass | None) -> Outcome:
        out = self.work / f"pass{i}"
        index = out / "index.csv"
        text = index.read_text() if index.is_file() else ""
        got = {row[0]: row for row in list(csv.reader(text.splitlines()))[1:] if row}
        res = Outcome(attempted=len(self.pins.catalog))
        for name, want in self.pins.catalog.items():
            row = got.pop(name, None)
            if row is None:
                res.failures.append(f"{name}: missing from index.csv")
                continue
            file = out / row[1]
            digest = sha256_file(file) if file.is_file() else None
            if digest != row[2]:
                problem = "file digest differs from index.csv"
            elif name == ALG42_ENTRY:
                p.outputs["alg42_sha256"] = digest
                problem = self._alg42_problem(row, want, p, first)
            else:
                problem = None if row == want else "index line differs from the pin"
            if problem:
                res.failures.append(f"{name}: {problem}")
        res.failures += [f"{name}: not in the pinned catalog" for name in got]
        if self.seed == 0 and not res.failures and text != self.pins.catalog_text:
            res.failures.append("index.csv differs from the pin")
        if p.outputs["exit"] != 0 and not res.failures:
            res.failures.append(f"goa catalog exit code {p.outputs['exit']}")
        return res

    def _alg42_problem(self, row, want, p: Pass, first: Pass | None):
        """The one seed-dependent entry: pinned at seed 0; at any seed it must
        pass verify_claims, rebuild identically and agree between passes."""
        if self.seed == 0:
            if row != want:
                return "index line differs from the pin"
        else:
            recipe = want[4].replace("--rng-seed 0", f"--rng-seed {self.seed}")
            if row[:2] != want[:2] or row[4] != recipe:
                return "index line differs from the pin"
        if not p.outputs["alg42_verified"]:
            return "fails verify_claims"
        if not p.outputs["alg42_rebuilt_identical"]:
            return "does not rebuild identically"
        if first is not None and row[2] != first.outputs.get("alg42_sha256"):
            return "differs between passes"
        return None


class Verify:
    """`goa verify` on the clean catalog designs and one corrupted copy of
    each: the read path, with all-pass and early-failure inputs."""

    def __init__(self, root, work, seed, pins):
        self.seed, self.pins = seed, pins
        self.corpus = work / "clean"
        self.stale = self._prepare_corpus(root)
        self.inputs = work / f"verify-inputs-{seed}.json"
        self._write_corrupted(work / "corrupt")
        paths = [str(work / name) for name in self.pins.verify]
        self.inputs.write_text(json.dumps(paths))

    def _corpus_stale(self):
        return [n for n in self.pins.catalog
                if not (self.corpus / f"{n}.json").is_file()
                or sha256_file(self.corpus / f"{n}.json") != self.pins.catalog[n][2]]

    def _prepare_corpus(self, root):
        """The clean inputs are the pinned seed-0 catalog files. They are built
        once per checkout with the program's own `goa catalog` and reused
        while their bytes still match the pins; building is never timed."""
        if not self._corpus_stale():
            return []
        shutil.rmtree(self.corpus, ignore_errors=True)
        subprocess.run([sys.executable, "-m", "goa", "catalog", "--out", str(self.corpus),
                        "--rng-seed", "0"],
                       cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=RUN_DEADLINE_S / 2, check=False)
        return self._corpus_stale()

    def _write_corrupted(self, target: Path):
        """One copy of each clean file with one seeded cell set to (x+1) mod s."""
        target.mkdir(parents=True, exist_ok=True)
        for name in self.pins.catalog:
            src = self.corpus / f"{name}.json"
            if not src.is_file():
                continue
            doc = json.loads(src.read_text())
            rng = random.Random(f"{self.seed}/{name}")
            r, c = rng.randrange(doc["runs"]), rng.randrange(doc["cols"])
            doc["matrix"][r][c] = (doc["matrix"][r][c] + 1) % doc["s"]
            (target / f"{name}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")

    def child_args(self, i):
        return ["--inputs", str(self.inputs)]

    def check(self, i, p: Pass, first: Pass | None) -> Outcome:
        res = Outcome(attempted=len(self.pins.verify))
        stale = {f"clean/{n}.json" for n in self.stale} | {f"corrupt/{n}.json" for n in self.stale}
        for (name, want), code in zip(self.pins.verify.items(), p.outputs["codes"], strict=True):
            if name in stale:
                res.failures.append(f"{name}: corpus file does not match its pinned bytes")
            elif code != want:
                res.failures.append(f"{name}: exit {code}, expected {want}")
        return res


class Search:
    """alg42 on each built-in seed at a fixed restart count: the draw-and-scan."""

    def __init__(self, root, work, seed, pins):
        self.seed, self.pins = seed, pins
        if pins.search_restarts != SEARCH_RESTARTS:
            raise BenchError("search pins were made at another restart count")

    def child_args(self, i):
        return []

    def check(self, i, p: Pass, first: Pass | None) -> Outcome:
        res = Outcome(attempted=len(SEARCH_SEEDS))
        for name in SEARCH_SEEDS:
            got = p.outputs.get(name, {"error": "no result"})
            if "error" in got:
                res.failures.append(f"{name}: {got['error']}")
            elif not got["verified"]:
                res.failures.append(f"{name}: result fails verify_claims")
            elif self.seed == 0 and (got["g"], got["generator_sha256"]) != (
                    self.pins.search[name]["g"], self.pins.search[name]["generator_sha256"]):
                res.failures.append(f"{name}: differs from the pinned reference")
            elif first is not None and got != first.outputs.get(name):
                res.failures.append(f"{name}: does not reproduce between passes")
        return res


WORKLOADS = {"catalog": Catalog, "verify": Verify, "search": Search}


# ---------------------------------------------------------------------------
# Passes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root, workload, seed, mode, extra, timeout) -> Pass:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    before = loop_samples()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} pass exceeded {timeout:.0f} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} pass failed:\n{proc.stderr[-2000:]}")
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_raw_s = r["ready"] - start
    setup_s = to_reference(setup_raw_s, before + r["ready_probes"])
    return Pass(mode, setup_s, setup_raw_s, r.get("wall_s", 0.0), r.get("wall_ref_s", 0.0),
                r.get("cpu_s", 0.0), r.get("rss_mb", 0.0), r.get("outputs", {}),
                r.get("layers"), r.get("env", {}), elapsed)


def source_identity(root: Path) -> dict:
    files = sorted((root / "src" / "goa").glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run(workload: str, seed: int, seconds: float, trace: bool, pins: Pins,
        root: Path) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result line, record)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = root / WORK_SUBDIR
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](root, work, seed, pins)
    modes = ["plain", "traced"] if trace else ["plain"]

    start = time.perf_counter()
    passes: list[Pass] = []
    outcome = Outcome()
    first = None
    while True:
        i = len(passes)
        mode = modes[i % len(modes)]
        extra = wl.child_args(i)
        if mode == "traced":
            extra += ["--spans", str(work / f"spans-{workload}-pass{i}.jsonl")]
        p = spawn(root, workload, seed, mode, extra, timeout=deadline - time.perf_counter())
        passes.append(p)
        res = wl.check(i, p, first)
        first = first or p
        outcome.attempted += res.attempted
        outcome.failures += [f"pass {i} ({mode}): {f}" for f in res.failures]

        now = time.perf_counter()
        expected = statistics.median(q.elapsed_s for q in passes)
        enough = len(passes) >= max(MIN_PASSES[workload], len(modes))
        if now + expected > deadline or (enough and now - start + expected > seconds):
            break

    plain = [p for p in passes if p.mode == "plain"]
    if trace:
        traced = [p for p in passes if p.mode == "traced"]
        if not traced:
            raise BenchError("no time left for a traced pass")
        metrics = {name: statistics.median(p.layers[name] for p in traced)
                   for name, _ in PER_LAYER if name in traced[0].layers}
        op_times = [t for p in plain for t in p.outputs.get("op_times", [])]
        metrics["cli.cpu_s"] = statistics.median(p.cpu_s for p in plain)
        metrics["cli.verify.p50_s"] = statistics.median(op_times) if op_times else 0.0
        metrics["cli.verify.p90_s"] = statistics.quantiles(op_times, n=10)[-1] if op_times else 0.0
        metrics["trace.wall_s"] = statistics.median(p.wall_s for p in plain)
        metrics["trace.overhead"] = (statistics.median(p.wall_ref_s for p in traced)
                                     / statistics.median(p.wall_ref_s for p in plain) - 1)
        units = dict(PER_LAYER)
    else:
        setups = [p.setup_s for p in plain]
        while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline - 10:
            setups.append(spawn(root, workload, seed, "setup", wl.child_args(len(passes)),
                                timeout=10).setup_s)
        metrics = {
            "wall_ref_s": statistics.median(p.wall_ref_s for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        }
        units = dict(END_TO_END)

    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "parameters": {"search_restarts": SEARCH_RESTARTS, "search_seeds": SEARCH_SEEDS,
                       "catalog_rng_seed": seed, "min_passes": MIN_PASSES[workload]},
        "env": {**passes[0].env, **source_identity(root)},
        "passes": [{"mode": p.mode, "setup_s": p.setup_s, "setup_raw_s": p.setup_raw_s,
                    "wall_s": p.wall_s,
                    "wall_ref_s": p.wall_ref_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb}
                   for p in passes],
        "failures": outcome.failures,
    }
    (work / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (root / "src" / "goa" / "__init__.py").is_file():
        print("error: run from the root of a goa checkout (src/goa not found)", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             Pins.load(), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps({k: record[k] for k in ("env", "parameters", "seed", "seconds")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
