"""Command-line front door.

Subcommands: construct, verify, search, survey, expand, eval, catalog.
A construction checks each claim once as it builds; the file is written with
truthful verified strengths, and a failed claim prints its witness and exits 2.
Exit codes: 0 ok, 1 partial failure, 2 verification/claim/parse failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import gf as gflib
from . import serialize
from .designs import (
    GeneratorMatrix,
    GroupedDesign,
    claims_ok,
    p_of_d,
    read_subjects,
    subset_columns,
    subset_design,
    verify_claims,
)
from .constructions import (
    construct_consecutive,
    construct_ebert,
    construct_prop1,
    construct_thm1,
    construct_thm2,
    ds_catalog,
    ds_search,
    grouped_kronecker,
    rank_primitive_polys,
)
from .errors import GoaError, ParameterRangeError, TooFewGroupsError
from .evalsim import SimModel, clarity_check, run_bias_study
from .expand import oa_to_lhd, rotate_columns
from .search import SEED_GENERATORS, SearchConfig, algorithm_42, survey, survey_table

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CLAIM = 2


def _add_out_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output path (default: derived from the construction)")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")


def _write_design(gd: GroupedDesign, out: str | None, fmt: str, default_name: str) -> Path:
    """Write gd beside out as JSON, CSV or both; return the JSON file's
    path, or the CSV file's when only that is written."""
    path = Path(out) if out else Path(f"{default_name}.json")
    if fmt in ("json", "both"):
        serialize.save_json(gd, path.with_suffix(".json"))
    if fmt in ("csv", "both"):
        serialize.save_csv(gd.design, path.with_suffix(".csv"))
    return path.with_suffix(".csv" if fmt == "csv" else ".json")


def _load_base(args) -> GroupedDesign:
    gd = serialize.load_design_file(args.base, args.s)
    idx = args.base_group
    if idx is not None:
        if not 0 <= idx < len(gd.groups):
            raise GoaError(f"--base-group {idx}: {args.base} has {len(gd.groups)} groups")
        gd = subset_columns(gd, gd.groups[idx].columns)
    return gd


def _shape(flag: str, text: str) -> tuple[int, int]:
    """The r,c of a --ds-shape or --ds-search value: two positive integers."""
    try:
        r, c = (int(x) for x in text.split(","))
        if r >= 1 and c >= 1:
            return r, c
    except ValueError:
        pass
    raise GoaError(f"{flag} {text}: expected two positive integers r,c")


def _get_ds(args, s: int):
    if args.ds_shape:
        return ds_catalog(s, *_shape("--ds-shape", args.ds_shape))
    if args.ds_search:
        return ds_search(s, *_shape("--ds-search", args.ds_search))
    raise GoaError("need --ds-shape or --ds-search")


def _refuse_above_desk(args) -> None:
    """Refuse an ebert or consecutive design above gflib.DESK_CELL_LIMIT cells
    from its flags alone, before any primitive polynomial is enumerated or
    any field built; construct_thm1 builds no field and checks its own
    s^3 x (s^2 + 1) first.  ebert is s^4 x (s + 1)(s^2 + 1), after the level
    count.  consecutive is s^k x floor(v/m) m, its groups of m taken from the
    v = (s^k - 1)/(s - 1) points of PG(k - 1, s), after GF(s^k) and m; an
    m > v leaves no group and is refused as construct_consecutive refuses it."""
    s = args.s
    if args.what == "ebert":
        gflib.level_field(s)
        gflib.check_cells(f"ebert(s={s})", s**4, (s + 1) * (s * s + 1))
        return
    k, m = args.k, args.m
    gflib.check_order(s, k)
    if m < 2:
        raise ParameterRangeError(f"need m >= 2, got {m}")
    v = (s**k - 1) // (s - 1)
    if m > v:
        raise TooFewGroupsError(f"group size {m} exceeds the {v} PG points")
    gflib.check_cells(f"consecutive(s={s},k={k},m={m})", s**k, v // m * m)


def cmd_construct(args) -> int:
    s = args.s
    if args.what in ("ebert", "consecutive"):
        _refuse_above_desk(args)
    if args.what == "thm1":
        gd = construct_thm1(s)
        name = f"thm1-s{s}"
    elif args.what == "ebert":
        h = gflib.Poly.parse(args.h, s) if args.h else gflib.find_primitive_polys(s, 4)[0]
        gd = construct_ebert(gflib.ext_field(s, 4, h))
        name = f"ebert-s{s}"
    elif args.what == "consecutive":
        k, m = args.k, args.m
        h = (gflib.Poly.parse(args.h, s) if args.h
             else rank_primitive_polys(s, k, m)[0][0])
        gd = construct_consecutive(gflib.ext_field(s, k, h), m)
        name = f"consecutive-s{s}-k{k}-m{m}"
    elif args.what == "prop1":
        ds = _get_ds(args, s)
        base = _load_base(args)
        size = args.blocks
        blocks = [list(range(j, min(j + size, ds.c))) for j in range(0, ds.c, size)]
        gd = construct_prop1(ds, blocks, base.design)
        name = f"prop1-s{s}"
    elif args.what == "thm2":
        ds = _get_ds(args, s)
        base = _load_base(args)
        result = construct_thm2(ds, base)
        gd = result.grouped
        for grp, bound in zip(gd.groups, result.bounds):
            p = _group_p(grp, functools.partial(p_of_d, gd.design))
            print(f"group of {grp.size}: p = {p} (bound {bound})")
        name = f"thm2-s{s}"

    if gd.generator is not None:
        for idx, grp in enumerate(gd.groups):
            block = GeneratorMatrix(gd.generator.s, gd.generator.matrix[:, grp.columns])
            print(f"G{idx}: " + " ".join(block.row_strings()))
    path = _write_design(gd, args.out, args.format, name)
    print(f"{gd.label()} -> {path}")
    return _verdict(gd)


def _verdict(gd: GroupedDesign) -> int:
    """Exit code of a design built and written: its construction checked every
    claim, so claims_ok decides; verify_claims only prints a failure's witness."""
    if claims_ok(gd):
        return EXIT_OK
    for line in verify_claims(gd).lines():
        print(line)
    print("verification FAILED; file written with truthful verified strengths")
    return EXIT_CLAIM


def _group_p(grp, measure) -> Fraction | int | None:
    """A checked group's p: the stored value, 1 once strength 3 is verified,
    else measure(grp.columns); None for a group of fewer than three
    columns."""
    if grp.p is not None:
        return grp.p
    if grp.verified_strength >= 3:
        return 1
    return measure(grp.columns) if grp.size >= 3 else None


def cmd_verify(args) -> int:
    gd = serialize.load_design_file(args.file, args.s)
    report = verify_claims(gd)
    for line in report.lines():
        print(line)
    if report.ok:
        # an unstored p is measured in the checks' context, from its group
        # reading and the verdicts found there
        for idx, grp in enumerate(gd.groups):
            line = [f"group {idx + 1}: {grp.size} cols, verified strength {grp.verified_strength}"]
            if grp.wlp is not None:
                line.append(f"wlp {tuple(grp.wlp)}")
            p = _group_p(grp, report.context.p)
            if p is not None:
                line.append(f"p {p}")
            print(", ".join(line))
        print(f"array: {gd.label()}")
        print("all claims hold")
        return EXIT_OK
    print("claim mismatch")
    return EXIT_CLAIM


def cmd_search(args) -> int:
    if args.builtin:
        gen = SEED_GENERATORS[args.builtin]
    elif not args.seed_design:
        raise GoaError("need --seed-design or --builtin")
    else:
        seed_design = serialize.load_design_file(args.seed_design)
        gen = seed_design.generator
        if gen is None:
            design = seed_design.design
            basis = read_subjects(design.s, design.matrix, [range(design.cols)])[0].basis
            if basis is None:
                raise GoaError(f"{args.seed_design}: its rows are not a linear space "
                               f"over GF({design.s}), so no generator seeds alg42")
            gen = GeneratorMatrix(design.s, basis)
    cfg = SearchConfig(
        restarts=args.restarts,
        seed=args.rng_seed,
        min_groups=args.min_groups,
    )
    gd = algorithm_42(gen, cfg)
    path = _write_design(gd, args.out, args.format, f"alg42-s{gen.s}-m{gen.m}")
    print(f"{gd.label()} (g={len(gd.groups)}) -> {path}")
    return _verdict(gd)


def cmd_survey(args) -> int:
    m_values = None
    if args.mmax is not None:
        m_values = range(args.k + 1, args.mmax + 1)
    rows = survey(args.s, args.k, m_values)
    print(survey_table(rows))
    if args.out:
        lines = ["s,k,m,t,g,A3,A4,A5,A6,h"]
        for r in rows:
            lines.append(
                f"{r.s},{r.k},{r.m},{r.t},{r.g},"
                + ",".join(str(a) for a in r.wlp_head)
                + f",{r.h.format().replace(',', ' ')}"
            )
        Path(args.out).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_expand(args) -> int:
    gd = serialize.load_design_file(args.design, args.s)
    if args.what == "lhd":
        real = oa_to_lhd(gd.design, seed=args.rng_seed)
    else:
        real = rotate_columns(gd)
    out = Path(args.out) if args.out else Path(f"{args.what}-of-{Path(args.design).stem}.json")
    csv_out = out.with_suffix(".csv")
    if args.format in ("json", "both"):
        serialize.save_real_json(real.matrix, real.origin, out, real.int_matrix)
    if args.format in ("csv", "both"):
        serialize.save_real_csv(real.matrix, csv_out)
    print(f"{real.runs}x{real.cols} real design -> {csv_out if args.format == 'csv' else out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    gd = serialize.load_design_file(args.design, args.s)
    if args.what == "clarity":
        rep = clarity_check(gd)
        print(f"main-effect columns: {rep.n_main}; interaction columns: {rep.n_interactions}")
        print(f"max |main x interaction| overall: {rep.max_abs:.3e}")
        print(f"max |main x interaction| within own group: {rep.max_abs_same_group:.3e}")
        return EXIT_OK
    try:
        sigmas = [float(x) for x in args.sigma.split(",")]
        if not all(map(math.isfinite, sigmas)):
            raise ValueError(args.sigma)
    except ValueError:
        raise GoaError(f"--sigma {args.sigma}: expected comma-separated numbers") from None
    model = SimModel(reps=args.reps, seed=args.rng_seed)
    results = run_bias_study([(Path(args.design).stem, gd)], sigmas, model)
    lines = ["design,sigma,mean,se"]
    for r in results:
        lines.append(f"{r.design},{r.sigma:g},{r.mean:.6f},{r.se:.6f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Catalog


def _catalog_entries(rng_seed: int):
    """(name, recipe, builder) for every design the catalog regenerates."""
    entries = []
    for s in (2, 3, 4, 5):
        entries.append((f"thm1-s{s}", f"construct thm1 --s {s}",
                        lambda s=s: construct_thm1(s)))
    # bases that several entries share are built once, on first use
    ebert = functools.cache(lambda s: construct_ebert(
        gflib.ext_field(s, 4, gflib.find_primitive_polys(s, 4)[0])))
    for s in (2, 3):
        h = gflib.find_primitive_polys(s, 4)[0]
        entries.append((f"ebert-s{s}", f"construct ebert --s {s} --h {h.format()}",
                        functools.partial(ebert, s)))

    def ebert_group(s):
        return subset_design(ebert(s).design, ebert(s).groups[0].columns)

    entries.append((
        "goa486-20x3",
        "construct prop1 --s 3 --ds-shape 6,6 --blocks 2 --base ebert-s3.json --base-group 0",
        lambda: construct_prop1(ds_catalog(3, 6, 6), [[0, 1], [2, 3], [4, 5]], ebert_group(3)),
    ))
    entries.append((
        "goa64-10x2",
        "construct prop1 --s 2 --ds-shape 4,4 --blocks 2 --base ebert-s2.json --base-group 0",
        lambda: construct_prop1(ds_catalog(2, 4, 4), [[0, 1], [2, 3]], ebert_group(2)),
    ))

    def wide_blocks_162():
        b = subset_design(construct_thm1(3).design, range(4))
        return grouped_kronecker(ds_catalog(3, 6, 6), [[0, 1, 2], [3, 4, 5]], b,
                                 origin="kron-blocks3(ds=6x6x3, b=thm1(s=3) group 0)")

    entries.append(("goa162-12x2",
                    "grouped_kronecker(ds=6x6x3, blocks of 3, b=thm1(s=3) group 0)",
                    wide_blocks_162))

    @functools.cache
    def thm2_5544():
        keep = [c for grp, n in zip(ebert(3).groups, (5, 5, 4, 4)) for c in grp.columns[:n]]
        return construct_thm2(ds_catalog(3, 6, 6), subset_columns(ebert(3), keep))

    entries.append((
        "goa486-thm2",
        "construct thm2 --s 3 --ds-shape 6,6 --base ebert-s3-subset.json",
        lambda: thm2_5544().grouped,
    ))
    entries.append((
        "goa486-thm2-regrouped",
        "construct thm2 --s 3 --ds-shape 6,6 --base ebert-s3-subset.json (nested)",
        lambda: thm2_5544().nested,
    ))

    for m, h_text in ((6, "1,1,1,1,2,1"), (7, "1,0,1,2,2,1")):
        entries.append((
            f"goa243-m{m}",
            f"construct consecutive --s 3 --k 5 --h {h_text} --m {m}",
            lambda m=m, h_text=h_text: construct_consecutive(
                gflib.ext_field(3, 5, gflib.Poly.parse(h_text, 3)), m),
        ))

    entries.append((
        "alg42-16-5",
        f"search alg42 --builtin oa16-5-ma --restarts 2000 --rng-seed {rng_seed}",
        lambda: algorithm_42(SEED_GENERATORS["oa16-5-ma"],
                             SearchConfig(restarts=2000, seed=rng_seed)),
    ))

    for s, kmax in ((2, 9), (3, 6)):
        for k in range(2, kmax + 1):
            v = (s**k - 1) // (s - 1)
            for m in range(k + 1, k + 5):
                if v // m < 1:
                    continue
                entries.append((
                    f"survey-s{s}-k{k}-m{m}",
                    f"construct consecutive --s {s} --k {k} --m {m}",
                    lambda s=s, k=k, m=m: construct_consecutive(
                        gflib.ext_field(s, k, rank_primitive_polys(s, k, m)[0][0]), m),
                ))
    return entries


def cmd_catalog(args) -> int:
    out_dir = Path(args.out or "catalog")
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = _catalog_entries(args.rng_seed)
    if args.only:
        entries = [e for e in entries if args.only in e[0]]
    index_lines = ["name,file,sha256,label,recipe"]
    failures = []
    for name, recipe, builder in entries:
        try:
            gd = builder()
            if not claims_ok(gd):
                raise GoaError(f"claims failed verification: {gd.label()}")
            path = out_dir / f"{name}.json"
            serialize.save_json(gd, path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            index_lines.append(f'{name},{path.name},{digest},"{gd.label()}","{recipe}"')
            print(f"{name}: {gd.label()}")
        except GoaError as exc:
            failures.append(f"{name}: {exc}")
            print(f"{name}: FAILED ({exc})", file=sys.stderr)
    (out_dir / "index.csv").write_text("\n".join(index_lines) + "\n")
    if failures:
        print(f"{len(failures)} entries failed", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The goa argument parser, built once per process: it holds no state
    between parse_args calls, and building every subparser costs ms."""
    parser = argparse.ArgumentParser(prog="goa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build and verify a design")
    con_sub = con.add_subparsers(dest="what", required=True)
    for what in ("thm1", "ebert", "prop1", "thm2", "consecutive"):
        # no prefix matching: a stray --h must not be read as --help
        p = con_sub.add_parser(what, allow_abbrev=False)
        p.add_argument("--s", type=int, required=True)
        _add_out_flags(p)
        if what in ("ebert", "consecutive"):
            p.add_argument("--h", help="primitive polynomial, descending coefficients")
        if what == "consecutive":
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--m", type=int, required=True)
        if what in ("prop1", "thm2"):
            scheme = p.add_mutually_exclusive_group()
            scheme.add_argument("--ds-shape", help="r,c for a catalogued scheme")
            scheme.add_argument("--ds-search", help="r,c to search for a scheme")
            p.add_argument("--base", required=True, help="base design JSON file")
            p.add_argument("--base-group", type=int, help="use only this group of the base")
        if what == "prop1":
            p.add_argument("--blocks", type=int, choices=(1, 2), default=2,
                           help="scheme columns per block (each block becomes one group)")
        p.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="re-verify the claims in a design file")
    ver.add_argument("file")
    ver.add_argument("--s", type=int, help="level count (required for CSV)")
    ver.set_defaults(func=cmd_verify)

    sea = sub.add_parser("search", help="randomized grouping search")
    sea_sub = sea.add_subparsers(dest="what", required=True)
    alg = sea_sub.add_parser("alg42")
    seed = alg.add_mutually_exclusive_group()
    seed.add_argument("--seed-design", help="JSON design file providing the seed generator")
    seed.add_argument("--builtin", choices=sorted(SEED_GENERATORS),
                      help="use an embedded minimum-aberration seed")
    alg.add_argument("--restarts", type=int, default=10_000)
    alg.add_argument("--rng-seed", type=int, default=0)
    alg.add_argument("--min-groups", type=int, default=1)
    _add_out_flags(alg)
    alg.set_defaults(func=cmd_search)
    sur = sub.add_parser("survey", help="consecutive-powers survey")
    sur.add_argument("--s", type=int, required=True)
    sur.add_argument("--k", type=int, required=True)
    sur.add_argument("--mmax", type=int)
    sur.add_argument("--out")
    sur.set_defaults(func=cmd_survey)

    exp = sub.add_parser("expand", help="Latin hypercube / rotation expansion")
    exp_sub = exp.add_subparsers(dest="what", required=True)
    for what in ("lhd", "rotate"):
        p = exp_sub.add_parser(what)
        p.add_argument("--design", required=True)
        p.add_argument("--s", type=int)
        if what == "lhd":
            p.add_argument("--rng-seed", type=int, default=0)
        _add_out_flags(p)
        p.set_defaults(func=cmd_expand)

    ev = sub.add_parser("eval", help="main-effects estimation study")
    ev_sub = ev.add_subparsers(dest="what", required=True)
    bias = ev_sub.add_parser("bias")
    bias.add_argument("--design", required=True)
    bias.add_argument("--s", type=int)
    bias.add_argument("--sigma", default="1,5,10")
    bias.add_argument("--reps", type=int, default=1000)
    bias.add_argument("--rng-seed", type=int, default=0)
    bias.add_argument("--out")
    bias.set_defaults(func=cmd_eval)
    clar = ev_sub.add_parser("clarity")
    clar.add_argument("--design", required=True)
    clar.add_argument("--s", type=int)
    clar.set_defaults(func=cmd_eval)

    cat = sub.add_parser("catalog", help="regenerate the design catalog")
    cat.add_argument("--out", default="catalog")
    cat.add_argument("--rng-seed", type=int, default=0)
    cat.add_argument("--only", help="restrict to entries whose name contains this")
    cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GoaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLAIM


def run() -> int:
    """Console entry point: a crash that main() lets raise is one `error:` line, exit 2."""
    try:
        return main()
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CLAIM
