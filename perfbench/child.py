"""One pass of a goa benchmark workload, in a fresh process.

Run from the root of a checkout with ``src`` on PYTHONPATH (run.py does
this). The pass calls goa in-process, captures everything goa prints, and
writes one JSON object as the last line of its standard output:

  ready    perf_counter value just before the timed section (the clock is
           system-wide, so the parent turns it into set-up time)
  ready_probes  the speed probes taken right after "ready" (see speed.py)
  wall_s   duration of the timed section, without the speed probes
  wall_ref_s  the same in reference seconds
  rss_mb   peak resident set size when the timed section ends
  cpu_s    process CPU seconds spent in the timed section
  outputs  what the parent's correctness gates compare against the pins
  layers   per-layer aggregates (traced passes only)

With --mode setup the process exits right after reporting "ready" and
"ready_probes".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

from run import ALG42_ENTRY, SEARCH_RESTARTS, SEARCH_SEEDS
from speed import SpeedProbe
from tracer import Tracer

import goa
from goa import cli, constructions, designs, gf, search, serialize


# ---------------------------------------------------------------------------
# Tracing targets: the public functions of each layer that the workloads run.


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lex_rank(cols, n):
    """0-based rank of a sorted column tuple among all combinations of
    range(n) of its size, in itertools.combinations order."""
    rank, prev, t = 0, -1, len(cols)
    for i, c in enumerate(cols):
        for j in range(prev + 1, c):
            rank += math.comb(n - 1 - j, t - 1 - i)
        prev = c
    return rank


def _strength_attrs(args, kwargs, result):
    design, t = _arg(args, kwargs, 0, "design"), _arg(args, kwargs, 1, "t")
    if result.ok:
        tuples = math.comb(design.cols, t)
    else:
        tuples = _lex_rank(result.witness, design.cols) + 1
    out = {"tuples": tuples, "fails": int(not result.ok),
           "bucket": "t2" if t == 2 else "t3plus" if t >= 3 else "t1"}
    if t == 2:
        out["t2.tuples"] = tuples
    return out


def _triples_attrs(args, kwargs, result):
    design = _arg(args, kwargs, 0, "design")
    columns = _arg(args, kwargs, 1, "columns") if len(args) > 1 or "columns" in kwargs else None
    n = design.cols if columns is None else len(list(columns))
    counted = design.runs % design.s**3 == 0
    return {"triples": math.comb(n, 3) if counted else 0}


def _alg42_attrs(args, kwargs, result):
    return {"restarts": _arg(args, kwargs, 1, "cfg").restarts, "g": len(result.groups)}


def _load_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def trace_targets():
    targets = [
        (gf, "ext_field", "gf.ext_field", None),
        (gf, "find_primitive_polys", "gf.find_primitive_polys", None),
        (gf, "span", "gf.span", lambda a, k, r: {"rows": r.shape[0]}),
        (gf, "row_reduce", "gf.row_reduce", None),
        (gf, "null_space", "gf.null_space", None),
        (gf, "mat_mul", "gf.mat_mul", None),
        (designs, "check_strength", "designs.check_strength", _strength_attrs),
        (designs, "max_strength", "designs.max_strength", None),
        (designs, "p_of_d", "designs.p_of_d", _triples_attrs),
        (designs, "wlp", "designs.wlp", None),
        (designs, "wlp_of_columns", "designs.wlp", None),
        (designs, "expand_generator", "designs.expand_generator",
         lambda a, k, r: {"rows": r.runs}),
        (designs, "verify_claims", "designs.verify_claims",
         lambda a, k, r: {"checks": len(r.checks)}),
        (designs, "annotate", "designs.annotate", None),
        (search, "algorithm_42", "search.algorithm_42", _alg42_attrs),
        (serialize, "dumps", "serialize.dumps", lambda a, k, r: {"bytes": len(r)}),
        (serialize, "save_json", "serialize.save_json", None),
        (serialize, "load_json", "serialize.load_json", _load_attrs),
        (cli, "main", "cli.main", None),
    ]
    for name, value in vars(constructions).items():
        if (inspect.isfunction(value) and value.__module__ == constructions.__name__
                and not name.startswith("_")):
            targets.append((constructions, name, f"constructions.{name}", None))
    return targets


def layer_metrics(agg) -> dict:
    """The per-layer metrics of one traced pass, from the span aggregates."""

    def ratio(a, b):
        return a / b if b else 0.0

    constructions_self = sum(
        v for k, v in agg.items()
        if k.startswith("constructions.") and k.endswith(".self_s")
        and not k.startswith("constructions.rank_primitive_polys."))
    cs = "designs.check_strength"
    return {
        "gf.ext_field.calls": agg["gf.ext_field.calls"],
        "gf.ext_field.builds": agg["gf.ext_field.builds"],
        "gf.ext_field.self_s": agg["gf.ext_field.self_s"],
        "gf.find_primitive_polys.calls": agg["gf.find_primitive_polys.calls"],
        "gf.find_primitive_polys.self_s": agg["gf.find_primitive_polys.self_s"],
        "gf.span.calls": agg["gf.span.calls"],
        "gf.span.rows": agg["gf.span.rows"],
        "gf.span.self_s": agg["gf.span.self_s"],
        "gf.row_reduce.calls": agg["gf.row_reduce.calls"],
        "gf.row_reduce.self_s": agg["gf.row_reduce.self_s"],
        "gf.null_space.self_s": agg["gf.null_space.self_s"],
        "gf.mat_mul.calls": agg["gf.mat_mul.calls"],
        "gf.mat_mul.self_s": agg["gf.mat_mul.self_s"],
        f"{cs}.calls": agg[f"{cs}.calls"],
        f"{cs}.fails": agg[f"{cs}.fails"],
        f"{cs}.tuples": agg[f"{cs}.tuples"],
        f"{cs}.tuples_per_s": ratio(agg[f"{cs}.tuples"], agg[f"{cs}.self_s"]),
        f"{cs}.self_s": agg[f"{cs}.self_s"],
        f"{cs}.t2.tuples": agg[f"{cs}.t2.tuples"],
        f"{cs}.t2.self_s": agg[f"{cs}.t2.self_s"],
        f"{cs}.t3plus.self_s": agg[f"{cs}.t3plus.self_s"],
        "designs.max_strength.calls": agg["designs.max_strength.calls"],
        "designs.max_strength.checks_per_call": ratio(
            agg[f"designs.max_strength>{cs}"], agg["designs.max_strength.calls"]),
        "designs.p_of_d.calls": agg["designs.p_of_d.calls"],
        "designs.p_of_d.triples": agg["designs.p_of_d.triples"],
        "designs.p_of_d.self_s": agg["designs.p_of_d.self_s"],
        "designs.wlp.calls": agg["designs.wlp.calls"],
        "designs.wlp.self_s": agg["designs.wlp.self_s"],
        "designs.expand_generator.rows": agg["designs.expand_generator.rows"],
        "designs.expand_generator.self_s": agg["designs.expand_generator.self_s"],
        "designs.verify_claims.checks": agg["designs.verify_claims.checks"],
        "designs.verify_claims.self_s": agg["designs.verify_claims.self_s"],
        "designs.annotate.self_s": agg["designs.annotate.self_s"],
        "constructions.self_s": constructions_self,
        "constructions.rank_primitive_polys.calls": agg["constructions.rank_primitive_polys.calls"],
        "constructions.rank_primitive_polys.self_s": agg["constructions.rank_primitive_polys.self_s"],
        "search.algorithm_42.self_s": agg["search.algorithm_42.self_s"],
        "search.restarts": agg["search.algorithm_42.restarts"],
        "search.restarts_per_s": ratio(agg["search.algorithm_42.restarts"],
                                       agg["search.algorithm_42.total_s"]),
        "search.g_best": agg["search.algorithm_42.g"],
        "serialize.dumps.self_s": agg["serialize.dumps.self_s"],
        "serialize.save_json.self_s": agg["serialize.save_json.self_s"],
        "serialize.bytes_written": agg["serialize.dumps.bytes"],
        "serialize.load_json.self_s": agg["serialize.load_json.self_s"],
        "serialize.bytes_read": agg["serialize.load_json.bytes"],
        "cli.self_s": agg["cli.main.self_s"],
    }


# ---------------------------------------------------------------------------
# Workloads. Each returns a function that runs the timed operations and
# returns their raw outputs, and a function that checks them afterwards.
# The timed function calls probe() after each operation (see speed.py).


class _ProbeEachLine(io.StringIO):
    """Captured stdout that probes the host speed after every printed line."""

    def __init__(self, probe):
        super().__init__()
        self.probe = probe

    def write(self, text):
        n = super().write(text)
        if "\n" in text:
            self.probe()
        return n


def _claims_hold(load) -> bool:
    """Whether the design that load() returns passes verify_claims."""
    try:
        gd = load()
        return designs.verify_claims(gd).ok and designs.claims_ok(gd)
    except Exception:  # any failure to load or verify fails the gate
        return False


def catalog_pass(args, probe):
    out = Path(args.out)

    def timed():
        # goa catalog prints one line per entry: probe there.
        try:
            with contextlib.redirect_stdout(_ProbeEachLine(probe)):
                code = cli.main(["catalog", "--out", str(out), "--rng-seed", str(args.seed)])
        except Exception as exc:  # the gate counts the entries it did not write
            code = f"{type(exc).__name__}: {exc}"
        return {"exit": code}

    def after(outputs):
        # The seed-dependent entry must pass verification and rebuild identically.
        path = out / f"{ALG42_ENTRY}.json"
        outputs["alg42_verified"] = _claims_hold(lambda: serialize.load_json(path))
        rebuilt = Path(args.rebuild) / path.name
        try:
            code = cli.main(["catalog", "--out", str(rebuilt.parent), "--only", ALG42_ENTRY,
                             "--rng-seed", str(args.seed)])
            same = code == 0 and rebuilt.read_bytes() == path.read_bytes()
        except Exception:  # a crash or a missing file fails the gate
            same = False
        outputs["alg42_rebuilt_identical"] = same

    return timed, after


def verify_pass(args, probe):
    inputs = json.loads(Path(args.inputs).read_text())

    def timed():
        codes, times = [], []
        clock = time.perf_counter
        for path in inputs:
            start = clock()
            try:
                code = cli.main(["verify", path])
            except Exception as exc:  # a crash is a wrong verdict, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
            times.append(clock() - start)
            codes.append(code)
            probe()
        return {"codes": codes, "op_times": times}

    return timed, None


def search_pass(args, probe):
    seeds = [(name, search.SEED_GENERATORS[name]) for name in SEARCH_SEEDS]
    cfg = search.SearchConfig(restarts=SEARCH_RESTARTS, seed=args.seed)

    def timed():
        results = {}
        for name, gen in seeds:
            try:
                results[name] = search.algorithm_42(gen, cfg)
            except Exception as exc:  # counted as a failed operation
                results[name] = exc
            probe()
        return results

    def after(outputs):
        for name, gd in list(outputs.items()):
            try:
                if isinstance(gd, Exception):
                    raise gd
                generator = json.dumps(gd.generator.matrix.tolist(), separators=(",", ":"))
                outputs[name] = {
                    "g": len(gd.groups),
                    "generator_sha256": hashlib.sha256(generator.encode()).hexdigest(),
                    "verified": _claims_hold(lambda: gd),
                }
            except Exception as exc:  # counted as a failed operation
                outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}

    return timed, after


PASSES = {"catalog": catalog_pass, "verify": verify_pass, "search": search_pass}


# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "goa": goa.__version__,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), default="plain")
    parser.add_argument("--out", help="catalog: output directory")
    parser.add_argument("--rebuild", help="catalog: directory for the rebuild check")
    parser.add_argument("--inputs", help="verify: JSON list of input paths")
    parser.add_argument("--spans", help="traced: where to write the spans")
    args = parser.parse_args()

    # Probes between operations would add to the self time of traced
    # spans, so traced passes are only probed before and after.
    probe = SpeedProbe(between_ops=args.mode != "traced")
    timed, after = PASSES[args.workload](args, probe)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(trace_targets())
        tracer.count_constructions(gf.ExtField, "gf.ext_field.builds")

    sink = io.StringIO()
    ready = time.perf_counter()
    probe.bracket()  # also scales the set-up time to reference seconds
    ready_probes = list(probe.samples)
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "ready_probes": ready_probes}))
        return
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer:
            tracer.active = True
        cpu0, probe0 = time.process_time(), probe.probe_s()
        outputs = timed()
        if tracer:
            tracer.active = False
        probe.bracket()
        cpu = time.process_time() - cpu0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if after:
            after(outputs)
    result = {"ready": ready, "ready_probes": ready_probes, "wall_s": probe.work_s(),
              "wall_ref_s": probe.reference_s(), "cpu_s": cpu - (probe.probe_s() - probe0),
              "rss_mb": rss_mb, "outputs": outputs, "env": environment()}
    if tracer:
        result["layers"] = layer_metrics(tracer.aggregate())
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
