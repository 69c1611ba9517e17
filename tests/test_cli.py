"""Tests for the command line front end and its CSV outputs."""

import csv
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mobb.cli import (APPROACHES, BENCH_HEADER, PROFILE_HEADER,
                      approach_config, build_parser, main, profile_rows,
                      run_bench)
from mobb.instances import (GeneratorSpec, ParseError, generate, read_instance,
                            write_instance)
from mobb.model import DEFAULT_ENUM_CAP, ModelError


@pytest.fixture
def kp_file(tmp_path):
    inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=8))
    path = tmp_path / "kp.moip.json"
    write_instance(inst, path)
    return path


@pytest.fixture
def instance_dir(tmp_path):
    d = tmp_path / "insts"
    d.mkdir()
    for seed in range(3):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=seed, items=8))
        write_instance(inst, d / f"kp{seed}.moip.json")
    return d


class TestApproachConfig:
    def test_labels_map_to_expected_features(self):
        assert approach_config("BB", 60).node_selection == "depth"
        assert approach_config("NS(LHG)", 60).node_selection == "lhg"
        assert approach_config("NS(HSZ)", 60).node_selection == "hsz"
        wst = approach_config("WST", 60)
        assert wst.warmstart and not wst.ec_enabled
        ec = approach_config("EC", 60)
        assert ec.warmstart and ec.ec_enabled and not ec.slb_enabled
        slb = approach_config("SLB", 60)
        assert slb.slb_enabled and not slb.te_enabled
        te = approach_config("SLB+TE", 60)
        assert te.slb_enabled and te.te_enabled

    def test_time_limit_and_refinement_forwarded(self):
        cfg = approach_config("BB", 123.0, refine_max=7)
        assert cfg.time_limit == 123.0 and cfg.refine_max == 7

    def test_unknown_label_rejected(self):
        with pytest.raises(ModelError):
            approach_config("XYZ", 60)


class TestSolveCommand:
    def test_prints_points_and_stats(self, kp_file, capsys):
        assert main(["solve", str(kp_file)]) == 0
        out = capsys.readouterr().out
        assert "nondominated points:" in out
        assert "nodes:" in out and "solved: True" in out

    def test_combined_flags_accepted(self, kp_file, capsys):
        rc = main(["solve", str(kp_file), "--strategy", "lhg", "--warmstart",
                   "--ec", "--slb", "--te", "--refine-max", "5"])
        assert rc == 0
        assert "solved: True" in capsys.readouterr().out

    def test_out_file_written(self, kp_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", str(kp_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["solved"] and doc["points"]
        assert len(doc["solutions"]) == len(doc["points"])

    def test_unknown_flag_is_usage_error(self, kp_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(kp_file), "--frobnicate"])
        assert exc.value.code == 2

    def test_malformed_file_is_clean_error(self, kp_file, capsys):
        doc = json.loads(kp_file.read_text())
        doc["p"] = "x"
        kp_file.write_text(json.dumps(doc))
        assert main(["solve", str(kp_file)]) == 2
        assert "'p' must be an integer" in capsys.readouterr().err

    def test_coefficient_at_int64_limit_is_clean_error(self, tmp_path, capsys):
        # C @ x would wrap in int64 and report a point with the wrong sign
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "wrap.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["C"][0][0] = -2**63
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 2
        assert "'C': coefficients too large" in capsys.readouterr().err

    def test_row_sum_at_limit_is_clean_error(self, tmp_path, capsys):
        # a row of 2**62 + 65 whose float64 sum rounds below 2**62
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=16))
        path = tmp_path / "rowsum.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["C"][0] = [2**58 + 31] * 15 + [2**58 - 400]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="'C': coefficients too large"):
            read_instance(path)
        assert main(["solve", str(path)]) == 2
        assert "'C': coefficients too large" in capsys.readouterr().err

    def test_missing_file_reported(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("limit", ["nan", "0", "-1"])
    def test_time_limit_not_positive_is_clean_error(self, kp_file, capsys,
                                                    command, limit):
        assert main([command, str(kp_file), "--time-limit", limit]) == 2
        assert "time_limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_negative_refine_max_is_clean_error(self, kp_file, capsys, command):
        # a negative cap used to run as if it were 0 and exit 0
        assert main([command, str(kp_file), "--refine-max", "-3"]) == 2
        assert "refine_max" in capsys.readouterr().err


class TestUnreadablePaths:
    """A path that names a directory, or a file that is not UTF-8, exits 2
    with an error line instead of a traceback."""

    @pytest.mark.parametrize("argv", [
        ["solve", "{dir}"],
        ["oracle", "{dir}"],
        ["solve", "{latin1}"],
        ["oracle", "{latin1}"],
        ["solve", "{kp}", "--out", "{dir}"],
        ["generate", "--family", "KP", "--items", "4", "--out", "{dir}"],
    ], ids=["solve-dir", "oracle-dir", "solve-latin1", "oracle-latin1",
            "solve-out-dir", "generate-out-dir"])
    def test_exits_2(self, kp_file, tmp_path, capsys, argv):
        latin1 = tmp_path / "latin1.moip.json"
        latin1.write_bytes('{"name": "café"}'.encode("latin-1"))
        paths = {"dir": str(tmp_path), "latin1": str(latin1), "kp": str(kp_file)}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.moip.json"
        path.write_bytes('{"name": "café"}'.encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.moip.json"):
            read_instance(path)


class TestOracleCommand:
    def test_matches_solver(self, kp_file, capsys):
        main(["solve", str(kp_file)])
        solve_out = capsys.readouterr().out
        main(["oracle", str(kp_file)])
        oracle_out = capsys.readouterr().out
        solve_pts = [l.strip() for l in solve_out.splitlines()
                     if l.startswith("  ")]
        oracle_pts = [l.strip() for l in oracle_out.splitlines()
                      if l.startswith("  ")]
        assert solve_pts == oracle_pts

    def test_fixings_flag(self, kp_file, capsys):
        assert main(["oracle", str(kp_file), "--fix", "0=0,1=0"]) == 0
        assert "nondominated points:" in capsys.readouterr().out

    @pytest.mark.parametrize("fix", ["3", "a=1", "0=1,", "0=1=1"])
    def test_malformed_fixings_are_usage_error(self, kp_file, capsys, fix):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(kp_file), "--fix", fix])
        assert exc.value.code == 2
        assert "argument --fix" in capsys.readouterr().err

    def test_repeated_fixing_index_named(self, kp_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(kp_file), "--fix", "0=1,0=0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --fix" in err and "index 0 fixed more than once" in err

    def test_cap_defaults_to_model_constant(self, kp_file):
        args = build_parser().parse_args(["oracle", str(kp_file)])
        assert args.cap == DEFAULT_ENUM_CAP

    def test_out_of_range_fixing_is_clean_error(self, kp_file, capsys):
        assert main(["oracle", str(kp_file), "--fix", "99=1"]) == 2
        assert "bad fixing" in capsys.readouterr().err

    def test_cap_refusal(self, tmp_path, capsys):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=30))
        path = tmp_path / "big.moip.json"
        write_instance(inst, path)
        assert main(["oracle", str(path)]) == 2
        assert "cap" in capsys.readouterr().err


class TestGenerateCommand:
    def test_writes_named_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--family", "KP", "--p", "3", "--seed", "4",
                     "--items", "6"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "KP_p3_n6_s4.moip.json").exists()

    def test_explicit_out_path(self, tmp_path):
        out = tmp_path / "custom.moip.json"
        assert main(["generate", "--family", "GAP", "--agents", "2",
                     "--jobs", "3", "--out", str(out)]) == 0
        assert out.exists()

    def test_bad_spec_reported(self, capsys):
        assert main(["generate", "--family", "KP"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBenchCommand:
    def test_rows_and_header(self, instance_dir, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", str(instance_dir), "--approaches", "BB,NS(LHG)",
                   "--out", str(out), "--time-limit", "120"])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BENCH_HEADER
        body = rows[1:]
        assert len(body) == 2 * 3 + 2     # per-instance rows + one aggregate each
        per = [r for r in body if r[1] != "aggregate"]
        assert all(r[5] == "1" for r in per)
        # both approaches agree on the frontier size per instance
        sizes = {}
        for r in per:
            sizes.setdefault(r[1], set()).add(r[6])
        assert all(len(s) == 1 for s in sizes.values())

    def test_no_wall_time_gives_identical_bytes(self, instance_dir, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            main(["bench", str(instance_dir), "--approaches", "BB,WST",
                  "--out", str(out), "--no-wall-time", "--time-limit", "120"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_directory_is_error(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["bench", str(d)]) == 1
        assert "no instances" in capsys.readouterr().err

    def test_default_approaches_cover_all_labels(self, kp_file, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", str(kp_file), "--out", str(out),
                     "--time-limit", "120", "--refine-max", "5"]) == 0
        with open(out, newline="") as fh:
            labels = {r["approach"] for r in csv.DictReader(fh)}
        assert labels == set(APPROACHES)


class TestProfile:
    def test_step_function_values(self):
        rows = [
            {"approach": "BB", "instance": "i1", "time_s": "1.000",
             "solved": "1", "nodes": "5", "ips": "0", "frontier": "2"},
            {"approach": "BB", "instance": "i2", "time_s": "3.000",
             "solved": "1", "nodes": "5", "ips": "0", "frontier": "2"},
            {"approach": "BB", "instance": "i3", "time_s": "9.000",
             "solved": "0", "nodes": "5", "ips": "0", "frontier": "2"},
            {"approach": "BB", "instance": "aggregate", "time_s": "0",
             "solved": "2/3", "nodes": "0", "ips": "0", "frontier": "0"},
        ]
        out = profile_rows(rows)
        assert out == [["BB", "1.000", f"{1/3:.6f}"],
                       ["BB", "3.000", f"{2/3:.6f}"]]

    def test_proportions_monotone_per_approach(self, instance_dir, tmp_path):
        bench = tmp_path / "bench.csv"
        prof = tmp_path / "profile.csv"
        main(["bench", str(instance_dir), "--approaches", "BB,NS(HSZ)",
              "--out", str(bench), "--time-limit", "120"])
        assert main(["profile", str(bench), "--out", str(prof)]) == 0
        with open(prof, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == PROFILE_HEADER
        last = {}
        for label, t, prop in rows[1:]:
            assert float(prop) > last.get(label, 0.0)
            last[label] = float(prop)
        assert set(last) == {"BB", "NS(HSZ)"}
        assert all(v <= 1.0 + 1e-12 for v in last.values())

    def test_wrong_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert main(["profile", str(bad)]) == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["BB,x,1,abc,0,1,3", "BB,x,1",
                                     "BB,x,1,0.500,0,1,3,9"])
    def test_malformed_row_rejected(self, tmp_path, capsys, row):
        bench = tmp_path / "bench.csv"
        bench.write_text(",".join(BENCH_HEADER) + "\nBB,y,1,0.100,0,1,3\n" + row + "\n")
        prof = tmp_path / "profile.csv"
        assert main(["profile", str(bench), "--out", str(prof)]) == 1
        assert "line 3" in capsys.readouterr().err
        assert not prof.exists()

    def test_non_utf8_bench_is_clean_error(self, tmp_path, capsys):
        bench = tmp_path / "latin1.csv"
        bench.write_bytes((",".join(BENCH_HEADER) + "\nBB,caf\xe9,1,0.1,0,1,1\n")
                          .encode("latin-1"))
        prof = tmp_path / "profile.csv"
        assert main(["profile", str(bench), "--out", str(prof)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not prof.exists()

    def test_empty_bench_gives_header_only(self, tmp_path):
        bench = tmp_path / "bench.csv"
        bench.write_text(",".join(BENCH_HEADER) + "\n")
        prof = tmp_path / "profile.csv"
        assert main(["profile", str(bench), "--out", str(prof)]) == 0
        with open(prof, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [PROFILE_HEADER]


class TestRunBench:
    def test_row_shape_matches_header(self, instance_dir):
        paths = sorted(instance_dir.glob("*.moip.json"))
        rows = run_bench(paths, ["BB"], time_limit=120, report_wall_time=False)
        for row in rows:
            assert len(row) == len(BENCH_HEADER)
        assert [r[1] for r in rows[:-1]] != []
        assert rows[-1][1] == "aggregate"


_KEYS = ("problem", "p", "n", "m", "C", "A", "b", "senses", "name")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                     st.floats(), st.text(max_size=4))
_VALUES = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)
_COEFFICIENTS = st.one_of(
    st.integers(-2**70, 2**70), st.sampled_from([2**53 + 1, 2**63 - 1, -2**63]),
    st.floats(),
    st.floats(-1e20, 1e20).map(lambda v: float(int(v))),   # integral floats
    st.lists(st.integers(-9, 9), max_size=2))


def _mutate(doc, data):
    """One random edit of an instance document, in place."""
    op = data.draw(st.sampled_from(["replace", "delete", "extra", "entry", "nest"]))
    key = data.draw(st.sampled_from(_KEYS))
    if op == "replace":
        doc[key] = data.draw(_VALUES)
    elif op == "delete":
        doc.pop(key, None)
    elif op == "extra":
        doc[data.draw(st.text(min_size=1, max_size=6))] = data.draw(_VALUES)
    elif op == "nest":
        doc[key] = [doc[key]] if key in doc else []
    else:
        field = data.draw(st.sampled_from(["C", "A", "b"]))
        target = doc.get(field)
        while isinstance(target, list) and target and isinstance(target[0], list):
            target = target[data.draw(st.integers(0, len(target) - 1))]
        if isinstance(target, list) and target:
            target[data.draw(st.integers(0, len(target) - 1))] = data.draw(_COEFFICIENTS)


class TestInputFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_document_parses_or_is_clean_error(self, tmp_path, capsys, data):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "fuzz.moip.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(doc, data)
        path.write_text(json.dumps(doc))
        try:
            read_instance(path)
        except ParseError:
            pass
        assert main(["solve", str(path)]) in (0, 2)
        capsys.readouterr()
