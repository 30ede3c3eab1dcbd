import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import goa
from goa import cli
from goa import designs as dz
from goa import gf
from goa import search as sx
from goa import serialize as io
from goa.cli import main

from conftest import assert_built_nothing_from, counted_checks, oracle_row_reduce

# Malformed fields of the thm1 s=3 file (groups [0-3], [4-6], [7-9],
# strengths 3, t0 2, first row all zero): the path to the field, its new
# value, and the name the error message must give.
CLAIM_MUTATIONS = [
    (("groups", 0, "columns", 0), 999, "groups[0].columns"),
    (("groups", 0, "columns", 0), -1, "groups[0].columns"),
    (("groups", 1, "columns", 1), 4, "groups[1].columns"),
    (("groups", 0, "claimed_strength"), 99, "groups[0].claimed_strength"),
    (("groups", 2, "verified_strength"), 99, "groups[2].verified_strength"),
    (("claimed_t0",), 99, "claimed_t0"),
    (("verified_t0",), 99, "verified_t0"),
    (("matrix", 0, 1), 0.5, "matrix"),
    (("s",), 2.9, "s"),
    (("s",), 101, "s"),
    (("claimed_t0",), True, "claimed_t0"),
    (("groups", 0, "claimed_strength"), "3", "groups[0].claimed_strength"),
    (("generator", 1, 2), -1, "generator"),
    (("generator", 1, 2), 3, "generator"),
    (("generator", 1, 2), 7, "generator"),
    (("groups",), "", "groups"),
    (("groups",), {}, "groups"),
    (("groups", 0, "columns"), "", "groups[0].columns"),
    (("groups", 1, "wlp"), {}, "groups[1].wlp"),
    (("origin",), None, "origin"),
]

# Flags that the subcommand does not read; each must be refused.
UNREAD_FLAGS = [
    ["construct", "thm1", "--s", "3", "--h", "1,1"],
    ["construct", "thm1", "--s", "3", "--rng-seed", "1"],
    ["construct", "ebert", "--s", "2", "--rng-seed", "1"],
    ["construct", "consecutive", "--s", "2", "--k", "4", "--m", "5", "--rng-seed", "1"],
    ["construct", "prop1", "--s", "3", "--ds-shape", "3,3", "--blocks", "1",
     "--base", "t.json", "--base-group", "0", "--h", "1,1"],
    ["construct", "thm2", "--s", "3", "--ds-shape", "3,3", "--base", "t.json",
     "--h", "1,1"],
    ["construct", "prop1", "--s", "3", "--ds-search", "3,3", "--blocks", "1",
     "--base", "t.json", "--base-group", "0", "--rng-seed", "1"],
    ["construct", "thm2", "--s", "3", "--ds-search", "3,3", "--base", "t.json",
     "--rng-seed", "1"],
]


def run_goa(*argv):
    """`python -m goa argv` in a subprocess, so exit codes and tracebacks
    are those a user sees."""
    src = str(Path(goa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "goa", *argv],
                          capture_output=True, text=True, env=env)


def strip_wlp(src: str, dst: str):
    """Copy the design file src to dst with no stored group patterns."""
    doc = json.loads(Path(src).read_text())
    for grp in doc["groups"]:
        grp["wlp"] = None
    Path(dst).write_text(json.dumps(doc))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestConstruct:
    def test_thm1_writes_and_verifies(self, workdir, capsys):
        assert main(["construct", "thm1", "--s", "3", "--out", "t.json"]) == 0
        out = capsys.readouterr().out
        assert "GOA(27" in out
        gd = io.load_json(workdir / "t.json")
        assert gd.group_sizes == (4, 3, 3)

    def test_ebert_with_polynomial(self, workdir):
        assert main(["construct", "ebert", "--s", "3", "--h", "1,0,0,1,2",
                     "--out", "e.json"]) == 0
        gd = io.load_json(workdir / "e.json")
        assert gd.design.runs == 81 and gd.design.cols == 40

    def test_consecutive_named_polynomial(self, workdir):
        assert main(["construct", "consecutive", "--s", "3", "--k", "5",
                     "--h", "1,1,1,1,2,1", "--m", "6", "--out", "c.json"]) == 0
        gd = io.load_json(workdir / "c.json")
        assert len(gd.groups) == 20

    def test_consecutive_wide_group(self, workdir):
        # one group of all 31 PG(4, 2) points: its defining words are the
        # [31, 26] Hamming code, 2^26 of them
        assert main(["construct", "consecutive", "--s", "2", "--k", "5", "--m", "31",
                     "--out", "c.json"]) == 0
        assert main(["verify", "c.json"]) == 0
        gd = io.load_json(workdir / "c.json")
        assert gd.design.runs == 32 and gd.groups[0].wlp[2] == 155

    @pytest.mark.parametrize("argv", [
        ["construct", "thm1", "--s", "3"],
        ["verify", "t.json"],
        ["search", "alg42", "--builtin", "oa16-5-ma"],
        ["survey", "--s", "2", "--k", "4"],
    ], ids=lambda a: a[0])
    def test_budget_flag_refused(self, workdir, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", "5"])
        assert exc.value.code == 2

    def test_prime_power_thm1_verifies(self, workdir):
        assert main(["construct", "thm1", "--s", "8", "--out", "t.json"]) == 0
        assert main(["verify", "t.json"]) == 0

    @pytest.mark.parametrize("argv,label", [
        (["ebert", "--s", "4"], "GOA(256, (17,17,17,17,17), (3,3,3,3,3), 4, 2)"),
        (["consecutive", "--s", "4", "--k", "3", "--m", "5"], "GOA(64, (5,5,5,5), (2,2,2,2), 4, 2)"),
    ], ids=["ebert", "consecutive"])
    def test_extension_of_gf4_verifies(self, workdir, capsys, argv, label):
        assert main(["construct", *argv, "--out", "d.json"]) == 0
        assert f"{label} -> d.json" in capsys.readouterr().out
        assert main(["verify", "d.json"]) == 0
        assert f"array: {label}\nall claims hold" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=lambda a: f"{a[1]} {a[-2]}")
    def test_unread_flag_exits_2_without_writing(self, workdir, argv):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        proc = run_goa(*argv, "--out", "new.json")
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert not (workdir / "new.json").exists()

    @pytest.mark.parametrize("s", [3, 13])
    def test_generator_rows_split_back_into_columns(self, workdir, capsys, s):
        # two-digit levels (s > 10) are comma-separated; one-digit ones are not
        assert main(["construct", "thm1", "--s", str(s), "--out", "t.json"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("GOA(")]
        gd = io.load_json(workdir / "t.json")
        assert len(lines) == len(gd.groups)
        for idx, (line, grp) in enumerate(zip(lines, gd.groups)):
            label, rows = line.split(": ")
            cells = [row.split(",") if s > 10 else list(row) for row in rows.split(" ")]
            assert label == f"G{idx}"
            assert np.array_equal(np.array(cells, dtype=np.int64),
                                  gd.generator.matrix[:, grp.columns])

    def test_two_column_scheme_search_above_column_limit(self, workdir, capsys):
        # DS(15, 2, 5) needs no balanced column enumerated, so the limit on
        # them (15!/(3!)^5 of them) must not refuse it
        assert main(["construct", "thm1", "--s", "5", "--out", "t.json"]) == 0
        assert main(["construct", "thm2", "--s", "5", "--ds-search", "15,2",
                     "--base", "t.json", "--out", "o.json"]) == 0
        assert "GOA(1875, (12,10,10,10,10), (3,3,3,3,3), 5, 2)" in capsys.readouterr().out
        assert main(["verify", "o.json"]) == 0

    def test_thm2_two_column_scheme_claims_strength_3(self, workdir, capsys):
        # a scheme of c <= 2 columns has p bound 1: each A (+) B_i is of strength 3
        assert main(["construct", "thm1", "--s", "3", "--out", "thm1-s3.json"]) == 0
        capsys.readouterr()
        assert main(["construct", "thm2", "--s", "3", "--ds-search", "6,2",
                     "--base", "thm1-s3.json", "--out", "o.json"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [f"group of {n}: p = 1 (bound 1)" for n in (8, 6, 6)]
        assert out[-1] == "GOA(162, (8,6,6), (3,3,3), 3, 2) -> o.json"
        gd = io.load_json(workdir / "o.json")
        assert [(grp.claimed_strength, grp.p) for grp in gd.groups] == [(3, None)] * 3
        assert main(["verify", "o.json"]) == 0
        assert "group 1: 8 cols, verified strength 3, p 1" in capsys.readouterr().out

    def test_csv_output(self, workdir):
        assert main(["construct", "thm1", "--s", "2", "--out", "t.json",
                     "--format", "both"]) == 0
        assert (workdir / "t.csv").exists()
        lines = (workdir / "t.csv").read_text().splitlines()
        assert len(lines) == 8

    def test_prop1_from_base_file(self, workdir):
        main(["construct", "ebert", "--s", "3", "--out", "e.json"])
        assert main(["construct", "prop1", "--s", "3", "--ds-shape", "6,6",
                     "--blocks", "2", "--base", "e.json", "--base-group", "0",
                     "--out", "p.json"]) == 0
        gd = io.load_json(workdir / "p.json")
        assert gd.design.runs == 486 and gd.group_sizes == (20, 20, 20)

    def test_unknown_shape_errors(self, workdir):
        code = main(["construct", "prop1", "--s", "3", "--ds-shape", "9,9",
                     "--base", "missing.json"])
        assert code == 2


class TestVerify:
    def test_good_file(self, workdir, capsys):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        assert main(["verify", "t.json"]) == 0
        assert "all claims hold" in capsys.readouterr().out

    def test_mutated_cell_exits_2(self, workdir, capsys):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["matrix"][4][1] = (doc["matrix"][4][1] + 1) % 3
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert main(["verify", "bad.json"]) == 2
        assert "witness" in capsys.readouterr().out

    def test_shuffled_column_exits_2(self, workdir):
        main(["construct", "ebert", "--s", "2", "--out", "e.json"])
        doc = json.loads((workdir / "e.json").read_text())
        col = [row[0] for row in doc["matrix"]]
        rng = np.random.default_rng(1)
        for row, val in zip(doc["matrix"], rng.permutation(col).tolist()):
            row[0] = val
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert main(["verify", "bad.json"]) == 2

    def test_undividable_claim_exits_2(self, workdir):
        # a claimed t0 of 50 on 64 runs of two levels: 2^50 cells would not fit
        points = gf.span(gf.level_field(2), np.eye(6, dtype=np.int64))[1:]
        design = dz.expand_generator(dz.GeneratorMatrix(2, points.T))
        io.save_json(dz.GroupedDesign(design, [], claimed_t0=50), workdir / "big.json")
        proc = run_goa("verify", "big.json")
        assert proc.returncode == 2
        assert "array: strength 50: FAIL (s^t does not divide N)" in proc.stdout
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_oversized_generator_fails_unexpanded(self, workdir, capsys):
        # a full-rank 16 x 63 generator stored with 64 runs: 2^16 != 64, so
        # the check fails without spanning 65,536 rows; the linear test spans
        # only the rows' own basis
        points = gf.span(gf.level_field(2), np.eye(6, dtype=np.int64))[1:]
        design = dz.expand_generator(dz.GeneratorMatrix(2, points.T))
        big = np.random.default_rng(0).integers(0, 2, size=(16, 63))
        big[:, :16] = np.eye(16, dtype=np.int64)
        io.save_json(dz.GroupedDesign(design, [], generator=dz.GeneratorMatrix(2, big)),
                     workdir / "big.json")
        capsys.readouterr()
        with mock.patch.object(cli, "verify_claims", wraps=dz.verify_claims) as verify, \
                mock.patch.object(gf, "span", wraps=gf.span) as span, \
                mock.patch.object(dz, "expand_generator", wraps=dz.expand_generator) as expand:
            assert main(["verify", "big.json"]) == 2
        assert_built_nothing_from(verify.call_args.args[0].generator.matrix, span, expand)
        assert all(2 ** len(call.args[1]) <= design.runs for call in span.call_args_list)
        assert "array: generator reproduces rows: FAIL" in capsys.readouterr().out

    def test_dependent_generator_exits_2(self, workdir):
        # three generator rows of rank 2 over GF(3), stored with the 27 rows
        # they combine to: k rows must be independent, so the check fails
        gen = dz.GeneratorMatrix(3, [[1, 0], [0, 1], [1, 1]])
        design = dz.Design(3, gf.span(gf.level_field(3), gen.matrix))
        io.save_json(dz.GroupedDesign(design, [dz.Group([0, 1], 2)], generator=gen),
                     workdir / "dep.json")
        proc = run_goa("verify", "dep.json")
        assert proc.returncode == 2
        assert "array: generator reproduces rows: FAIL" in proc.stdout
        assert "group 1 (2 cols): strength 2: PASS" in proc.stdout
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_linear_file_verifies_unexpanded(self, workdir):
        main(["construct", "consecutive", "--s", "2", "--k", "5", "--m", "6", "--out", "c.json"])
        with mock.patch.object(cli, "verify_claims", wraps=dz.verify_claims) as verify, \
                mock.patch.object(gf, "span", wraps=gf.span) as span, \
                mock.patch.object(dz, "expand_generator", wraps=dz.expand_generator) as expand:
            assert main(["verify", "c.json"]) == 0
        assert_built_nothing_from(verify.call_args.args[0].generator.matrix, span, expand)

    def test_strength3_groups_print_p_1_uncounted(self, workdir, capsys):
        # the three thm1 groups carry no stored p and verify at strength 3
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        capsys.readouterr()
        counted = AssertionError("p was measured")
        with mock.patch.object(dz._CheckContext, "p", side_effect=counted), \
                mock.patch.object(dz, "p_of_d", side_effect=counted):
            assert main(["verify", "t.json"]) == 0
        out = capsys.readouterr().out
        assert out.count(", p 1\n") == 3

    def test_strength2_groups_print_counted_p(self, workdir, capsys):
        main(["construct", "consecutive", "--s", "2", "--k", "4", "--m", "6", "--out", "c.json"])
        capsys.readouterr()
        assert main(["verify", "c.json"]) == 0
        assert capsys.readouterr().out.count(", p 9/10\n") == 2

    def test_csv_verify(self, workdir, capsys):
        main(["construct", "thm1", "--s", "3", "--out", "t.json", "--format", "both"])
        assert main(["verify", "t.csv", "--s", "3"]) == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "t.json"],
        ["expand", "lhd", "--design", "t.json", "--out", "x.json"],
        ["eval", "clarity", "--design", "t.json"],
    ], ids=lambda a: a[0])
    def test_level_count_must_agree_with_the_file(self, workdir, capsys, argv):
        # --s is read for a CSV file; a JSON file carries its own s
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        capsys.readouterr()
        assert main([*argv, "--s", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: t.json: the level count given is 5, the file's s is 3\n")
        assert not (workdir / "x.json").exists()
        assert main([*argv, "--s", "3"]) == 0

    @pytest.mark.parametrize("s, message", [
        ("6", "s: 6 is not a prime power"),
        ("200", "s: level count 200 above desk-scale bound 97"),
    ], ids=["6", "200"])
    @pytest.mark.parametrize("argv", [
        ["verify", "a.csv"],
        ["expand", "lhd", "--design", "a.csv", "--out", "x.json"],
        ["eval", "clarity", "--design", "a.csv"],
    ], ids=lambda a: a[0])
    def test_csv_level_count_is_a_level_field(self, workdir, capsys, argv, s, message):
        # every cell lies below both, yet neither is a level count, as a
        # JSON file's s would not be
        (workdir / "a.csv").write_text("0,1\n1,2\n2,0\n")
        assert main([*argv, "--s", s]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in workdir.iterdir()] == ["a.csv"]

    def test_base_level_count_must_agree(self, workdir, capsys):
        main(["construct", "thm1", "--s", "2", "--out", "t.json"])
        capsys.readouterr()
        assert main(["construct", "thm2", "--s", "3", "--ds-shape", "3,3", "--base", "t.json",
                     "--out", "x.json"]) == 2
        assert capsys.readouterr().err == (
            "error: t.json: the level count given is 3, the file's s is 2\n")
        assert not (workdir / "x.json").exists()

    def test_parse_error_exits_2(self, workdir):
        (workdir / "junk.json").write_text("{")
        assert main(["verify", "junk.json"]) == 2

    @pytest.mark.parametrize("path,value,field", CLAIM_MUTATIONS,
                             ids=[f"{m[2]}={m[1]!r}" for m in CLAIM_MUTATIONS])
    def test_malformed_claims_exit_2(self, workdir, path, value, field):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        (workdir / "bad.json").write_text(json.dumps(doc))
        proc = run_goa("verify", "bad.json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert field in proc.stderr

    def test_empty_group_exits_2(self, workdir):
        # a group with no columns must not verify as GOA(8, (0), (0), 2, 2)
        main(["construct", "thm1", "--s", "2", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["groups"] = [{"columns": [], "claimed_strength": 0, "verified_strength": None,
                          "wlp": None, "p": None}]
        (workdir / "bad.json").write_text(json.dumps(doc))
        proc = run_goa("verify", "bad.json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "groups[0].columns" in proc.stderr


class TestCertifyOnce:
    """construct and search decide by claims_ok; verify records what it proved."""

    @pytest.mark.parametrize("argv", [
        ["construct", "thm1", "--s", "3"],
        ["search", "alg42", "--builtin", "oa16-5-ma", "--restarts", "50"],
    ], ids=lambda a: a[0])
    def test_failed_claim_exits_2_with_witness(self, workdir, capsys, argv):
        # the design is built claiming whole-array strength 3, one above
        # what thm1 and alg42 designs hold
        real = dz.annotate

        def annotate(gd):
            gd.claimed_t0 += 1
            return real(gd)

        with mock.patch.object(dz, "annotate", annotate):
            assert main([*argv, "--out", "f.json"]) == 2
        out = capsys.readouterr().out
        assert "\narray: strength 3: FAIL (witness columns (" in out
        assert out.endswith(
            "\nverification FAILED; file written with truthful verified strengths\n")
        gd = io.load_json(workdir / "f.json")
        assert (gd.claimed_t0, gd.verified_t0) == (3, 2)
        assert all(g.verified_strength == g.claimed_strength for g in gd.groups)
        assert main(["verify", "f.json"]) == 2
        assert "array: strength 3: FAIL (witness columns (" in capsys.readouterr().out

    def test_construct_counts_nothing_on_a_linear_design(self, workdir):
        # thm1's rows are linear: every claim is read off the dual distance,
        # and no bitset is built
        with counted_checks() as check, \
                mock.patch.object(dz, "_level_bitsets", wraps=dz._level_bitsets) as bits:
            assert main(["construct", "thm1", "--s", "3", "--out", "t.json"]) == 0
        assert not check.called
        assert not bits.called

    def test_nonlinear_design_still_counts(self, workdir):
        # goa162-12x2 is a Kronecker sum whose rows and groups are not linear:
        # building and verifying each count the array and both groups at t = 2
        for argv in (["catalog", "--out", ".", "--only", "goa162-12x2"],
                     ["verify", "goa162-12x2.json"]):
            with counted_checks() as check:
                assert main(argv) == 0
            assert [(len(c.args[1]), c.args[2]) for c in check.call_args_list
                    ] == [(24, 2), (12, 2), (12, 2)]

    def test_prop1_counts_nothing_on_a_linear_base(self, workdir):
        # the base group's projection and its strength-3 prerequisite are
        # read off the dual distance; only the Kronecker sum is counted
        main(["construct", "ebert", "--s", "3", "--out", "e.json"])
        with counted_checks() as check:
            assert main(["construct", "prop1", "--s", "3", "--ds-shape", "6,6", "--blocks", "2",
                         "--base", "e.json", "--base-group", "0", "--out", "p.json"]) == 0
        assert [(c.args[0].runs, len(c.args[1]), c.args[2]) for c in check.call_args_list
                ] == [(486, 60, 2), (486, 20, 3), (486, 20, 3)]

    def test_thm2_counts_the_sum_once(self, workdir):
        # the coarse and the nested grouping share one A (+) B and its
        # whole-array verdict; each group is counted once
        main(["construct", "ebert", "--s", "3", "--h", "1,0,0,1,2", "--out", "e.json"])
        with counted_checks() as check:
            assert main(["construct", "thm2", "--s", "3", "--ds-shape", "6,6",
                         "--base", "e.json", "--out", "t.json"]) == 0
        assert [(c.args[0].runs, len(c.args[1]), c.args[2]) for c in check.call_args_list
                ] == [(486, 240, 2)] + [(486, 60, 2)] * 4 + [(486, 20, 3)] * 8

    @pytest.mark.parametrize("setup, argv, groups, printed", [
        pytest.param([], ["construct", "ebert", "--s", "3", "--out", "e.json"], 4, "",
                     id="construct"),
        pytest.param([["construct", "ebert", "--s", "3", "--out", "e.json"]],
                     ["verify", "e.json"], 4, "", id="verify"),
        # groups verified at strength 2 print a measured p
        pytest.param([["construct", "consecutive", "--s", "3", "--k", "4", "--m", "6",
                       "--out", "c.json"]],
                     ["verify", "c.json"], 6, "p 19/20", id="verify-p-measured"),
        # linear groups that store no pattern: their reading runs to A_3
        pytest.param([["construct", "consecutive", "--s", "3", "--k", "4", "--m", "6",
                       "--out", "c.json"], lambda: strip_wlp("c.json", "n.json")],
                     ["verify", "n.json"], 6, "p 19/20", id="verify-p-no-wlp"),
        # groups that store p, checked against the one reading
        pytest.param([["construct", "ebert", "--s", "3", "--out", "e.json"],
                      ["construct", "thm2", "--s", "3", "--ds-shape", "6,6", "--base", "e.json",
                       "--out", "t.json"]],
                     ["verify", "t.json"], 4, "triple proportion p: PASS", id="verify-p-stored"),
    ])
    def test_one_pattern_per_subject(self, workdir, capsys, setup, argv, groups, printed):
        # two readings, one of the whole array and one of its groups at
        # once; a printed or stored p is measured from the second
        for step in setup:
            if callable(step):
                step()
            else:
                assert main(step) == 0
        capsys.readouterr()
        with mock.patch.object(dz, "read_subjects", wraps=dz.read_subjects) as read:
            assert main(argv) == 0
        assert [len(call.args[2]) for call in read.call_args_list] == [1, groups]
        assert printed in capsys.readouterr().out

    def test_verify_records_proven_strengths(self, workdir, capsys):
        main(["construct", "thm1", "--s", "2", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["verified_t0"] = None
        for grp in doc["groups"]:
            grp["verified_strength"] = None
        (workdir / "n.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "n.json"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(
            "group 1: 3 cols, verified strength 3, wlp (0, 0, 0), p 1\n"
            "group 2: 2 cols, verified strength 2, wlp (0, 0)\n"
            "array: GOA(8, (3,2), (3,2), 2, 2)\n"
            "all claims hold\n")


class TestSearchCli:
    def test_alg42_builtin(self, workdir):
        assert main(["search", "alg42", "--builtin", "oa16-5-ma", "--restarts", "300",
                     "--rng-seed", "1", "--out", "a.json"]) == 0
        gd = io.load_json(workdir / "a.json")
        assert all(tuple(g.wlp) == (0, 0, 0, 0, 1) for g in gd.groups)

    def test_alg42_from_file(self, workdir):
        main(["construct", "thm1", "--s", "2", "--out", "t.json"])
        # thm1 s=2 yields a regular 8-run design; its basis seeds the search
        assert main(["search", "alg42", "--seed-design", "t.json",
                     "--restarts", "50", "--rng-seed", "0", "--out", "a.json"]) == 0

    def test_survey_csv(self, workdir):
        assert main(["survey", "--s", "2", "--k", "4", "--out", "s.csv"]) == 0
        lines = (workdir / "s.csv").read_text().splitlines()
        assert lines[0].startswith("s,k,m,t,g")
        assert len(lines) > 1

    def test_survey_of_gf4_rows_verify(self, workdir, capsys):
        # each row's polynomial builds the consecutive design the row describes
        assert main(["survey", "--s", "4", "--k", "3"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[:3] for row in rows] == [["4", "3", str(m)] for m in (4, 5, 6, 7)]
        for _, _, m, t, g, *_, h in rows:
            assert main(["construct", "consecutive", "--s", "4", "--k", "3", "--m", m,
                         "--h", h, "--out", "c.json"]) == 0
            assert main(["verify", "c.json"]) == 0
            gd = io.load_json(workdir / "c.json")
            assert len(gd.groups) == int(g)
            assert {grp.verified_strength for grp in gd.groups} == {int(t)}

    def test_survey_empty_m_range(self, workdir, capsys):
        # --mmax at k leaves no group size: the header alone, not the default m
        assert main(["survey", "--s", "2", "--k", "3", "--mmax", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [sx.survey_table([])]

    @pytest.mark.parametrize("s,k,message", [
        ("1", "2", "1 is not a prime power"),
        ("6", "2", "6 is not a prime power"),
        ("2", "0", "survey needs k >= 1, got 0"),
        ("2", "10", "survey covers run sizes below 1000"),
    ], ids=["s1", "s6", "k0", "large"])
    def test_survey_refusals_exit_2(self, workdir, capsys, s, k, message):
        assert main(["survey", "--s", s, "--k", k, "--out", "s.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (workdir / "s.csv").exists()

    def test_alg42_over_gf4(self, workdir):
        # the seed is the first 3 x 5 group of the consecutive GF(4) design;
        # PG(2, 4) has v = 21 points, so four disjoint groups of 5 is the most
        main(["construct", "consecutive", "--s", "4", "--k", "3", "--m", "5", "--out", "c.json"])
        gd = io.load_json(workdir / "c.json")
        io.save_json(dz.subset_columns(gd, gd.groups[0].columns), workdir / "seed.json")
        assert main(["search", "alg42", "--seed-design", "seed.json", "--restarts", "1000",
                     "--out", "a.json"]) == 0
        assert main(["verify", "a.json"]) == 0
        assert len(io.load_json(workdir / "a.json").groups) == 4

    def test_search_survey_alias_removed(self):
        # `goa survey` is the one survey command
        with pytest.raises(SystemExit) as exc:
            main(["search", "survey", "--s", "2", "--k", "4"])
        assert exc.value.code == 2


class TestExpandEval:
    def test_lhd(self, workdir):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        assert main(["expand", "lhd", "--design", "t.json", "--rng-seed", "2",
                     "--out", "l.json"]) == 0
        doc = json.loads((workdir / "l.json").read_text())
        assert doc["runs"] == 27 and doc["cols"] == 10

    def test_rotate(self, workdir):
        assert main(["construct", "consecutive", "--s", "2", "--k", "5", "--m", "8",
                     "--out", "g.json"]) == 0
        assert main(["expand", "rotate", "--design", "g.json", "--out", "r.json"]) == 0
        doc = json.loads((workdir / "r.json").read_text())
        assert doc["cols"] == 24

    def test_expand_csv_writes_no_json(self, workdir, capsys):
        assert main(["construct", "consecutive", "--s", "2", "--k", "5", "--m", "8",
                     "--out", "g.json"]) == 0
        capsys.readouterr()
        assert main(["expand", "rotate", "--design", "g.json", "--format", "csv",
                     "--out", "r.json"]) == 0
        assert capsys.readouterr().out == "32x24 real design -> r.csv\n"
        assert not (workdir / "r.json").exists()
        assert len((workdir / "r.csv").read_text().splitlines()) == 32

    def test_rotate_refuses_rng_seed(self, workdir):
        # rotation draws nothing at random; only lhd reads --rng-seed
        main(["construct", "consecutive", "--s", "2", "--k", "5", "--m", "8",
              "--out", "g.json"])
        proc = run_goa("expand", "rotate", "--design", "g.json", "--rng-seed", "5",
                       "--out", "r.json")
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert not (workdir / "r.json").exists()

    def test_eval_bias_csv(self, workdir, capsys):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        assert main(["eval", "bias", "--design", "t.json", "--sigma", "1,5",
                     "--reps", "20", "--rng-seed", "0", "--out", "b.csv"]) == 0
        lines = (workdir / "b.csv").read_text().splitlines()
        assert lines[0] == "design,sigma,mean,se"
        assert len(lines) == 3

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_eval_bias_needs_two_reps(self, workdir, capsys, reps):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "bias", "--design", "t.json", "--reps", reps,
                         "--out", "b.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: the bias study needs at least 2 replicates, got {reps}\n"
        assert "nan" not in captured.out
        assert not (workdir / "b.csv").exists()

    @pytest.mark.parametrize("sigma", ["x", "", "1,,5", "nan", "inf", "1,-inf"])
    def test_eval_bias_refuses_a_bad_sigma(self, workdir, capsys, sigma):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        capsys.readouterr()
        assert main(["eval", "bias", "--design", "t.json", "--sigma", sigma,
                     "--out", "b.csv"]) == 2
        assert capsys.readouterr().err == (
            f"error: --sigma {sigma}: expected comma-separated numbers\n")
        assert not (workdir / "b.csv").exists()

    def test_eval_clarity(self, workdir, capsys):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        assert main(["eval", "clarity", "--design", "t.json"]) == 0
        assert "interaction" in capsys.readouterr().out


class TestCatalog:
    def test_subset_build_and_stability(self, workdir, capsys):
        assert main(["catalog", "--out", "cat", "--only", "thm1"]) == 0
        index = (workdir / "cat" / "index.csv").read_text()
        assert "thm1-s5" in index
        assert main(["catalog", "--out", "cat2", "--only", "thm1"]) == 0
        index2 = (workdir / "cat2" / "index.csv").read_text()
        assert index == index2


class TestCatalogContent:
    def test_required_entries_in_index(self, catalog_dir):
        index = (catalog_dir / "index.csv").read_text()
        assert "GOA(486, (20,20,20), (3,3,3), 3, 2)" in index
        assert "GOA(64, (10,10), (3,3), 2, 2)" in index
        assert "GOA(162, (12,12), (2,2), 3, 2)" in index
        assert "GOA(125, (6,5,5,5,5), (3,3,3,3,3), 5, 2)" in index

    def test_every_file_verifies(self, catalog_dir):
        import numpy as np

        files = sorted(catalog_dir.glob("*.json"))
        rng = np.random.default_rng(8)
        for path in rng.choice(files, size=8, replace=False):
            assert main(["verify", str(path)]) == 0, path.name

    def test_wlp_of_every_column(self, catalog_dir):
        # 512 x 507: the defining words number 2^498 - 1, up to scalars
        gd = io.load_json(catalog_dir / "survey-s2-k9-m13.json")
        start = time.perf_counter()
        pattern = dz.wlp_of_columns(gd.design, range(507))
        assert time.perf_counter() - start < 2
        assert pattern[:2] == (0, 0) and sum(pattern) == 2**498 - 1

    @pytest.mark.parametrize("p,code", [("21549864/21592285", 0), ("1/2", 2)])
    def test_stored_p_on_every_column(self, catalog_dir, workdir, capsys, p, code):
        # one group of all 507 columns: 21,592,285 triples, read off A_3
        # (the rows are linear with A_1 = A_2 = 0) rather than counted
        doc = json.loads((catalog_dir / "survey-s2-k9-m13.json").read_text())
        doc["groups"] = [{"columns": list(range(507)), "claimed_strength": 2,
                          "verified_strength": 2, "wlp": None, "p": p}]
        (workdir / "wide.json").write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["verify", "wide.json"]) == code
        assert time.perf_counter() - start < 1
        assert "21549864/21592285" in capsys.readouterr().out


class TestStrengthPrereqs:
    """A base group that lacks strength 3, or has fewer than three columns,
    is refused on one error line with exit 2, and nothing is written."""

    @pytest.fixture
    def two(self, workdir):
        # thm1-s3 regrouped as a 2-column group and a 3-column one
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["groups"] = [{"columns": cols, "claimed_strength": t, "verified_strength": t,
                          "wlp": None, "p": None} for cols, t in (([0, 1], 2), ([2, 3, 4], 3))]
        (workdir / "two.json").write_text(json.dumps(doc))
        assert main(["verify", "two.json"]) == 0

    @pytest.mark.parametrize("argv,subject", [
        (["thm2", "--ds-shape", "3,3"], "group [0, 1]"),
        (["thm2", "--ds-search", "6,3"], "group [0, 1]"),
        (["prop1", "--ds-shape", "3,3", "--blocks", "1", "--base-group", "0"], "input design"),
    ], ids=["thm2", "thm2-search", "prop1"])
    def test_narrow_group_exits_2(self, workdir, two, capsys, argv, subject):
        capsys.readouterr()
        assert main(["construct", *argv[:1], "--s", "3", *argv[1:], "--base", "two.json",
                     "--out", "x.json"]) == 2
        assert capsys.readouterr().err == f"error: {subject} is not of strength 3\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["t.json", "two.json"]

    @pytest.mark.parametrize("argv", [["--ds-shape", "3,3"], ["--ds-search", "6,3"]],
                             ids=["shape", "search"])
    def test_thm2_base_without_groups_exits_2(self, workdir, capsys, argv):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["groups"] = []
        (workdir / "none.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["construct", "thm2", "--s", "3", *argv, "--base", "none.json",
                     "--out", "x.json"]) == 2
        assert capsys.readouterr().err == "error: the base has no groups\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["none.json", "t.json"]

    def test_rotate_refuses_strength2_groups(self, workdir, capsys):
        # 8 pairwise-independent columns with a dependent triple: strength 2 only
        d = dz.expand_generator(dz.GeneratorMatrix(2, [
            [1, 0, 1, 0, 1, 0, 1, 0],
            [0, 1, 1, 0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ]))
        io.save_json(dz.annotate(dz.GroupedDesign(d, [dz.Group(list(range(8)), 2)])),
                     workdir / "w.json")
        assert main(["expand", "rotate", "--design", "w.json", "--out", "r.json"]) == 2
        assert capsys.readouterr().err == "error: every group must have strength 3\n"
        assert [p.name for p in workdir.iterdir()] == ["w.json"]


class TestCliEdgeCases:
    def test_prop1_needs_a_scheme_source(self, workdir):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        assert main(["construct", "prop1", "--s", "3", "--base", "t.json"]) == 2

    def test_prop1_with_searched_scheme(self, workdir):
        main(["construct", "ebert", "--s", "3", "--out", "e.json"])
        assert main(["construct", "prop1", "--s", "3", "--ds-search", "3,3",
                     "--blocks", "1", "--base", "e.json", "--base-group", "0",
                     "--out", "p.json"]) == 0
        gd = io.load_json(workdir / "p.json")
        assert gd.design.runs == 243 and gd.group_sizes == (10, 10, 10)

    def test_search_rejects_zero_restarts(self, workdir):
        proc = run_goa("search", "alg42", "--builtin", "oa16-5-ma", "--restarts", "0",
                       "--out", "a.json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "restarts" in proc.stderr
        assert not (workdir / "a.json").exists()

    def test_foreign_error_exits_2_on_one_line(self, workdir):
        # coefficients outside GF(3) raise a ValueError, not a GoaError
        proc = run_goa("construct", "ebert", "--s", "3", "--h", "9,9", "--out", "e.json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not (workdir / "e.json").exists()

    def test_foreign_error_raises_in_process(self, workdir):
        # only the console entry point turns a crash into exit 2
        with pytest.raises(ValueError):
            main(["construct", "ebert", "--s", "3", "--h", "9,9", "--out", "e.json"])

    @pytest.mark.parametrize("argv", [
        ["survey", "--s", "101", "--k", "1"],
        ["construct", "thm1", "--s", "101"],
        ["construct", "ebert", "--s", "101"],
    ], ids=["survey", "thm1", "ebert"])
    def test_level_count_above_bound_exits_2(self, workdir, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: level count 101 above desk-scale bound 97\n"

    @pytest.mark.parametrize("argv", [
        ["construct", "thm1", "--s", "97", "--out", "o.json"],
        ["construct", "ebert", "--s", "31", "--out", "o.json"],
        ["construct", "consecutive", "--s", "2", "--k", "16", "--m", "17", "--out", "o.json"],
        ["construct", "consecutive", "--s", "2", "--k", "0", "--m", "5", "--out", "o.json"],
        ["construct", "consecutive", "--s", "2", "--k", "4", "--m", "1", "--out", "o.json"],
        ["construct", "consecutive", "--s", "2", "--k", "10", "--m", "100000", "--out", "o.json"],
        ["eval", "clarity", "--design", "wide.csv", "--s", "3"],
        ["eval", "bias", "--design", "t.json", "--sigma", "nan", "--out", "o.csv"],
        ["eval", "bias", "--design", "t.json", "--rng-seed", "-1", "--out", "o.csv"],
        ["expand", "lhd", "--design", "t.json", "--rng-seed", "-1", "--out", "o.json"],
    ], ids=["thm1-s97", "ebert-s31", "consecutive-k16-m17", "consecutive-k0",
            "consecutive-m1", "consecutive-m-above-v", "clarity-ungrouped", "sigma-nan",
            "bias-seed", "lhd-seed"])
    def test_refused_before_any_work(self, workdir, capsys, catalog_dir, argv):
        # a size past gflib.DESK_CELL_LIMIT or a number out of range is one
        # goa error from main, before a polynomial is enumerated or an array built
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        wide = io.load_json(catalog_dir / "survey-s3-k6-m7.json").design
        io.save_csv(wide, workdir / "wide.csv")  # 729 x 364, read ungrouped
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        refuse = mock.Mock(side_effect=AssertionError("enumerated or built a field"))
        start = time.perf_counter()
        with mock.patch.object(gf, "find_primitive_polys", refuse), \
                mock.patch.object(cli, "rank_primitive_polys", refuse), \
                mock.patch.object(gf, "ext_field", refuse):
            code = main(argv)
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(workdir.iterdir()) == before

    def test_grouped_wide_design_passes_clarity(self, catalog_dir, capsys):
        # the same 729 x 364 matrix in 52 groups of 7: 729 x 5,097 model cells
        assert main(["eval", "clarity", "--design",
                     str(catalog_dir / "survey-s3-k6-m7.json")]) == 0
        assert capsys.readouterr().out.startswith(
            "main-effect columns: 728; interaction columns: 4368\n")

    def test_search_rejects_negative_rng_seed(self, workdir):
        proc = run_goa("search", "alg42", "--builtin", "oa16-5-ma", "--restarts", "5",
                       "--rng-seed", "-1", "--out", "a.json")
        assert proc.returncode == 2
        assert proc.stderr == "error: the rng seed must be non-negative, got -1\n"
        assert not (workdir / "a.json").exists()

    @pytest.mark.parametrize("k", [13, 60])
    def test_search_bounds_the_field_tables(self, workdir, k):
        # a full-rank k x (k + 1) generator over GF(2): at k = 13 alg42 would
        # build one GF(2^13) for each of its 630 primitive polynomials, 5.2e6
        # cells; at k = 60 one field is already past the limit
        gen = np.hstack([np.eye(k, dtype=int), np.ones((k, 1), dtype=int)])
        doc = {"s": 2, "runs": 2, "cols": k + 1, "claimed_t0": 1, "verified_t0": 1,
               "groups": [{"columns": list(range(k + 1)), "claimed_strength": 1,
                           "verified_strength": 1, "wlp": None, "p": None}],
               "generator": gen.tolist(), "matrix": [[0] * (k + 1), [1] * (k + 1)],
               "origin": "wide"}
        (workdir / "wide.json").write_text(json.dumps(doc))
        start = time.perf_counter()
        with mock.patch.object(gf, "find_primitive_polys") as enumerate_polys:
            code = main(["search", "alg42", "--seed-design", "wide.json", "--restarts", "10",
                         "--out", "a.json"])
        assert time.perf_counter() - start < 1
        assert code == 2 and not enumerate_polys.called
        assert not (workdir / "a.json").exists()

    @pytest.mark.parametrize("what,extra", [
        ("prop1", ["--blocks", "2", "--base-group", "0"]),
        ("thm2", []),
    ], ids=["prop1", "thm2"])
    def test_scheme_flags_exclude_each_other(self, workdir, capsys, what, extra):
        # no DS(6, 7, 3) exists, so --ds-search 6,7 must not give way to --ds-shape 6,6
        main(["construct", "ebert", "--s", "3", "--out", "ebert-s3.json"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["construct", what, "--s", "3", "--ds-shape", "6,6", "--ds-search", "6,7",
                  "--base", "ebert-s3.json", *extra])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert [p.name for p in workdir.iterdir()] == ["ebert-s3.json"]

    def test_search_needs_a_seed(self, workdir):
        assert main(["search", "alg42", "--restarts", "10"]) == 2

    def test_search_takes_one_seed(self, workdir, capsys):
        main(["construct", "thm1", "--s", "2", "--out", "t.json"])
        with pytest.raises(SystemExit) as exc:
            main(["search", "alg42", "--builtin", "oa16-5-ma", "--seed-design", "t.json",
                  "--restarts", "5", "--out", "a.json"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (workdir / "a.json").exists()

    @pytest.mark.parametrize("group", ["4", "-1"])
    def test_base_group_out_of_range(self, workdir, capsys, group):
        # ebert --s 3 has groups 0..3; -1 must not pick the last one
        main(["construct", "ebert", "--s", "3", "--out", "e.json"])
        capsys.readouterr()
        assert main(["construct", "prop1", "--s", "3", "--ds-shape", "6,6", "--blocks", "2",
                     "--base", "e.json", "--base-group", group, "--out", "p.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: --base-group {group}: e.json has 4 groups\n")
        assert not (workdir / "p.json").exists()

    @pytest.mark.parametrize("flag,shape", [
        ("--ds-shape", "6"), ("--ds-search", "6"), ("--ds-shape", "6,6,6"),
        ("--ds-search", "a,b"), ("--ds-shape", "0,6"),
    ])
    def test_malformed_scheme_shape(self, workdir, capsys, flag, shape):
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        capsys.readouterr()
        assert main(["construct", "thm2", "--s", "3", flag, shape, "--base", "t.json",
                     "--out", "x.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} {shape}: expected two positive integers r,c\n")
        assert not (workdir / "x.json").exists()

    @pytest.mark.parametrize("name", ["binary.json", "deep.json", "folder.json",
                                      "missing.json", "binary.csv", "missing.csv"])
    def test_unreadable_file_exits_2(self, workdir, capsys, name):
        # a file that cannot be read, decoded or parsed is one error line
        # from main itself, not only from the console entry point
        if name.startswith("binary"):
            (workdir / name).write_bytes(b"\xff\xfe{\x00")
        elif name == "deep.json":
            (workdir / name).write_text("[" * 100_000 + "]" * 100_000)
        elif name == "folder.json":
            (workdir / name).mkdir()
        assert main(["verify", name, "--s", "3"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1
        assert "Traceback" not in out + err

    def test_search_rejects_constant_column_seed(self, workdir):
        main(["construct", "thm1", "--s", "2", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["generator"] = None
        for row in doc["matrix"]:
            row[0] = 0
        (workdir / "c.json").write_text(json.dumps(doc))
        assert main(["search", "alg42", "--seed-design", "c.json", "--restarts", "5"]) == 2

    def test_search_rejects_nonlinear_seed(self, workdir):
        # goa162-12x2's 162 rows are not a linear space; the span of their
        # rank-7 row space is a different, 2187-run design
        main(["catalog", "--out", ".", "--only", "goa162-12x2"])
        proc = run_goa("search", "alg42", "--seed-design", "goa162-12x2.json",
                       "--restarts", "5", "--out", "a.json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: goa162-12x2.json: its rows are not a linear space")
        assert not (workdir / "a.json").exists()

    def test_search_seeds_from_the_rref_of_linear_rows(self, workdir):
        # a linear seed without a stored generator searches from the RREF
        # of its rows, as if that were its generator
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["generator"] = None
        (workdir / "rows.json").write_text(json.dumps(doc))
        rref, pivots = oracle_row_reduce(gf.level_field(3), doc["matrix"])
        doc["generator"] = rref[:len(pivots)].tolist()
        (workdir / "rref.json").write_text(json.dumps(doc))
        for name in ("rows", "rref"):
            assert main(["search", "alg42", "--seed-design", f"{name}.json", "--restarts", "20",
                         "--out", f"a-{name}.json"]) == 0
        assert (workdir / "a-rows.json").read_bytes() == (workdir / "a-rref.json").read_bytes()

    def test_successive_calls_match_fresh_processes(self, workdir, capsys, monkeypatch):
        # one parser serves every main() call in a process; argparse wraps
        # usage lines to COLUMNS, so both sides get the same width
        monkeypatch.setenv("COLUMNS", "80")
        main(["construct", "thm1", "--s", "3", "--out", "t.json"])
        doc = json.loads((workdir / "t.json").read_text())
        doc["matrix"][4][1] = (doc["matrix"][4][1] + 1) % 3
        (workdir / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        codes = []
        for argv in (["verify", "t.json"], ["verify", "bad.json"],
                     ["verify", "t.json", "--bogus"], ["verify", "t.json"]):
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            out, err = capsys.readouterr()
            proc = run_goa(*argv)
            assert (codes[-1], out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert codes == [0, 2, 2, 0]
        assert cli.build_parser() is cli.build_parser()

    def test_rotate_rejects_ungrouped(self, workdir):
        main(["construct", "thm1", "--s", "2", "--out", "t.json", "--format", "both"])
        assert main(["expand", "rotate", "--design", "t.csv", "--s", "2"]) == 2
