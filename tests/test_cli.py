import contextlib
import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altproj import cli
from altproj.angles import angle_report
from altproj.cli import dump_system, load_system
from altproj.corpus import example3, two_lines
from altproj.diagnostics import bound_report
from altproj.numerics import NumericalFailure


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "altproj.cli", *args],
                          capture_output=True, text=True, **kwargs)


class TestSystemFile:
    def test_dump_load_round_trip_is_exact(self):
        system = example3(12)
        again = load_system(dump_system(system))
        for a, b in zip(system.subspaces, again.subspaces):
            assert np.array_equal(a.basis, b.basis)

    def test_load_orthonormalizes_spanning_sets(self):
        doc = {"dim": 2, "subspaces": [
            {"name": "a", "vectors": [[1.0, 1.0], [2.0, 2.0]]},
            {"name": "b", "vectors": [[0.0, 1.0]]},
        ]}
        system = load_system(json.dumps(doc))
        assert system.dims == (1, 1)

    @pytest.mark.parametrize("doc", [
        "not json",
        json.dumps({"dim": 2}),
        json.dumps({"dim": 2, "subspaces": [{"name": "a", "vectors": [[1.0, 0.0]]}]}),
        json.dumps({"dim": 2, "subspaces": [
            {"name": "a", "vectors": [[1.0, 0.0, 0.0]]},
            {"name": "b", "vectors": [[0.0, 1.0]]},
        ]}),
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            load_system(doc)

    @pytest.mark.parametrize("doc", [
        {"dim": 2, "subspaces": [1, 2]},
        {"dim": 2, "subspaces": [{"vectors": 5}, {"vectors": [[0.0, 1.0]]}]},
        {"dim": 2, "subspaces": [{"vectors": [5]}, {"vectors": [[0.0, 1.0]]}]},
        {"dim": 2, "subspaces": [{"vectors": [["a", "b"]]}, {"vectors": [[0.0, 1.0]]}]},
        {"dim": None, "subspaces": [{"vectors": []}, {"vectors": []}]},
        {"dim": [2], "subspaces": [{"vectors": []}, {"vectors": []}]},
        {"dim": float("inf"), "subspaces": [{"vectors": []}, {"vectors": []}]},
        {"dim": 2.5, "subspaces": [{"vectors": [[1.0, 0.0]]}, {"vectors": [[0.0, 1.0]]}]},
        {"dim": 2, "subspaces": [{"vectors": [[True, 0]]}, {"vectors": [[1, 0]]}]},
    ])
    def test_malformed_schema_exits_one_without_traceback(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = run_cli("angles", str(path))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_subspaces_that_are_not_a_list_exit_one_with_that_line(self, tmp_path):
        text = json.dumps({"dim": 2, "subspaces": "x"})
        with pytest.raises(ValueError, match='^"subspaces" must be a list of objects$'):
            load_system(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = run_cli("angles", str(path))
        assert result.returncode == 1
        assert result.stderr.splitlines() == ['altproj: error: "subspaces" must be a list of objects']

    def test_oversized_dim_is_rejected_before_any_allocation(self, tmp_path, monkeypatch, capsys):
        # in-process, so that a missing guard fails on the patched
        # constructors instead of allocating d x d matrices
        def refuse(*args, **kwargs):
            raise AssertionError("a subspace was built for an oversized dim")

        monkeypatch.setattr(cli.Subspace, "from_vectors", refuse)
        monkeypatch.setattr(cli, "SubspaceSystem", refuse)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": cli.MAX_DIM + 1, "subspaces": [
            {"name": "a", "vectors": []}, {"name": "b", "vectors": []}]}))
        assert cli.main(["angles", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


ENTRIES = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324, 0.0]),
                    st.floats(-10.0, 10.0))


@st.composite
def system_documents(draw):
    dim = draw(st.integers(1, 4))
    rows = st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), max_size=3)
    subspaces = draw(st.lists(st.fixed_dictionaries({"vectors": rows}), min_size=2, max_size=3))
    return {"dim": dim, "subspaces": subspaces}


class TestFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(deadline=None, max_examples=40)
    @example(doc={"dim": 2, "subspaces": [{"vectors": [[1e308, 1e308]]}, {"vectors": [[1, 0]]}]})
    # ||T - P_M|| is subnormal here, and rescaling it takes a shift past 2^1023
    @example(doc={"dim": 3, "subspaces": [{"vectors": [[5e-324, 1e308, 1e308]]},
                                          {"vectors": [[1e308, 5e-324, 0.0], [1e308, 0.0, 1.0]]}]})
    @given(doc=system_documents())
    def test_any_system_document_exits_cleanly(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc))
        for command in ("angles", "bounds", "iterate"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([command, str(path)]) in (0, 1, 2)


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a system was built for an oversized ambient dimension")


def assert_huge_count_refused(command, flag):
    """A count far past MAX_COUNT exits 1 with a usage error, not an allocation traceback."""
    result = run_cli(*command, flag, str(10**14))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"{flag} must be at most {cli.MAX_COUNT}" in result.stderr


class TestGen:
    @pytest.mark.parametrize("flags, ambient_dim, dims", [
        (["--family", "example3", "--dim", "12"], 12, (4, 5, 6)),
        (["--family", "two-lines", "--theta", "0.5"], 2, (1, 1)),
        (["--family", "tilted", "--k", "3"], 6, (3, 3)),
        (["--family", "random", "--dim", "5", "--dims", "2,2", "--seed", "1"], 5, (2, 2)),
        (["--family", "common-core", "--dim", "5", "--dims", "2,2", "--core-dim", "1"], 5, (2, 2)),
    ])
    def test_each_family_builds_from_its_flags(self, capsys, flags, ambient_dim, dims):
        assert cli.main(["gen", *flags]) == 0
        system = load_system(capsys.readouterr().out)
        assert (system.ambient_dim, system.dims) == (ambient_dim, dims)

    @pytest.mark.parametrize("flags, missing", [
        (["--family", "two-lines"], "--theta"),
        (["--family", "tilted"], "--k"),
        (["--family", "random", "--dims", "2,2"], "--dim"),
        (["--family", "random", "--dim", "5"], "--dims"),
        (["--family", "common-core", "--dim", "5", "--dims", "2,2"], "--core-dim"),
    ])
    def test_missing_flag_exits_one_and_names_it(self, capsys, flags, missing):
        assert cli.main(["gen", *flags]) == 1
        assert capsys.readouterr().err == f"altproj: error: {flags[1]} needs {missing}\n"

    @pytest.mark.parametrize("dims", ["", "a"])
    def test_malformed_dims_exit_one_without_traceback(self, dims):
        result = run_cli("gen", "--family", "random", "--dim", "5", "--dims", dims)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_rule_flag_is_gone(self):
        result = run_cli("gen", "--family", "tilted", "--k", "4", "--rule", "inv-k")
        assert result.returncode == 1
        assert "unrecognized arguments: --rule" in result.stderr

    @pytest.mark.parametrize("flags", [
        ["--family", "random", "--dim", str(cli.MAX_DIM + 1), "--dims", "1,1"],
        ["--family", "tilted", "--k", str(cli.MAX_DIM // 2 + 1)],
    ])
    def test_oversized_ambient_dimension_exits_one_before_building(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.setattr(cli, "random_system", refuse_to_build)
        monkeypatch.setattr(cli, "tilted_pairs", refuse_to_build)
        out = tmp_path / "huge.json"
        assert cli.main(["gen", *flags, "-o", str(out)]) == 1
        assert not out.exists()
        assert "ambient dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "random", "--dim", "0", "--dims", "1,1"],
        ["gen", "--family", "tilted", "--k", "-1"],
        ["probe-slow", "--k", "0", "--horizon", "5"],
    ])
    def test_an_ambient_dimension_below_one_exits_one_with_one_line(self, monkeypatch, capsys, argv):
        # refused by the integer rule before anything is built
        for builder in ("random_system", "tilted_pairs", "slow_vector_probe"):
            monkeypatch.setattr(cli, builder, refuse_to_build)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("altproj: error: ambient dimension") and err.count("\n") == 1

    def test_coordinate_example_dimensions(self, tmp_path):
        out = tmp_path / "ex3.json"
        result = run_cli("gen", "--family", "example3", "--dim", "12", "-o", str(out))
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 12
        assert [len(s["vectors"]) for s in doc["subspaces"]] == [4, 5, 6]

    def test_two_lines_orthogonal(self):
        result = run_cli("gen", "--family", "two-lines", "--theta", "1.5707963267948966")
        assert result.returncode == 0
        system = load_system(result.stdout)
        vec = system.subspaces[1].basis[:, 0]
        assert abs(vec[0]) <= 1e-12

    def test_byte_identical_reruns(self):
        args = ("gen", "--family", "random", "--dim", "8", "--dims", "3,3,3", "--seed", "7")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_tilted_family(self):
        result = run_cli("gen", "--family", "tilted", "--k", "4")
        assert result.returncode == 0
        system = load_system(result.stdout)
        assert system.ambient_dim == 8 and system.dims == (4, 4)

    def test_common_core_family(self):
        result = run_cli("gen", "--family", "common-core", "--dim", "6", "--dims", "2,3",
                         "--core-dim", "1", "--seed", "2")
        assert result.returncode == 0
        assert load_system(result.stdout).intersection.dim >= 1

    def test_invalid_parameters_exit_one(self):
        result = run_cli("gen", "--family", "two-lines", "--theta", "0.0")
        assert result.returncode == 1
        assert result.stderr != ""
        assert run_cli("gen", "--family", "nonsense").returncode == 1


class TestAngles:
    def test_round_trip_matches_in_process_bit_for_bit(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "example3", "--dim", "12", "-o", str(path))
        result = run_cli("angles", str(path))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        report = angle_report(example3(12))
        assert payload["c"] == report.c
        assert payload["kappa"] == report.kappa
        assert payload["c0"] == report.c0
        assert payload["kappa0"] == report.kappa0
        assert payload["pairwise"] == [[float(v) for v in row] for row in report.pairwise_dixmier_reduced]
        assert payload["inclination"]["estimate"] == report.inclination.estimate
        assert payload["inclination"]["dual_lower"] == report.inclination.dual_lower
        assert payload["degenerate"] is False

    def test_orthogonal_pair_file(self, tmp_path):
        path = tmp_path / "orth.json"
        path.write_text(json.dumps({"dim": 2, "subspaces": [
            {"name": "a", "vectors": [[1.0, 0.0]]},
            {"name": "b", "vectors": [[0.0, 1.0]]},
        ]}))
        payload = json.loads(run_cli("angles", str(path)).stdout)
        assert payload["c"] == pytest.approx(0.0, abs=1e-12)

    def test_two_lines_sixty_degrees(self, tmp_path):
        path = tmp_path / "lines.json"
        run_cli("gen", "--family", "two-lines", "--theta", str(np.pi / 3), "-o", str(path))
        payload = json.loads(run_cli("angles", str(path)).stdout)
        assert payload["c"] == pytest.approx(0.5, abs=1e-12)

    def test_missing_file_exit_one(self):
        assert run_cli("angles", "/nonexistent/sys.json").returncode == 1

    def test_numerical_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        # in-process: the analysis of a well-posed file is made to fail
        def fail(system):
            raise NumericalFailure("forced")

        monkeypatch.setattr(cli, "angle_report", fail)
        path = tmp_path / "lines.json"
        path.write_text(dump_system(two_lines(0.5)))
        assert cli.main(["angles", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == ["altproj: numerical failure: forced"]


class TestIterate:
    def test_huge_iteration_count_exits_one_without_traceback(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(dump_system(two_lines(0.5)))
        assert_huge_count_refused(["iterate", str(path)], "--iters")

    @pytest.mark.parametrize("order", ["cyclic", "random"])
    def test_a_negative_seed_exits_one_with_the_library_message(self, tmp_path, capsys, order):
        # the seed of a random x0 used to reach numpy, which said "expected non-negative integer"
        path = tmp_path / "sys.json"
        path.write_text(dump_system(two_lines(0.5)))
        assert cli.main(["iterate", str(path), "--order", order, "--seed", "-1", "--iters", "3"]) == 1
        assert capsys.readouterr().err == "altproj: error: seed must be >= 0 and an integer, got -1\n"

    def test_cyclic_coordinate_example(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "example3", "--dim", "12", "-o", str(path))
        result = run_cli("iterate", str(path), "--order", "cyclic", "--iters", "50", "--seed", "1")
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "n,measured"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, 51))
        assert float(rows[-1][1]) <= 1e-10

    def test_x0_in_intersection_gives_zero_column(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"dim": 2, "subspaces": [
            {"name": "a", "vectors": [[1.0, 0.0], [0.0, 1.0]]},
            {"name": "b", "vectors": [[1.0, 0.0]]},
        ]}))
        result = run_cli("iterate", str(path), "--x0", "3.0,0.0", "--iters", "5")
        values = [float(line.split(",")[1]) for line in result.stdout.strip().splitlines()[1:]]
        assert values == [0.0] * 5

    def test_random_order_deterministic(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "random", "--dim", "6", "--dims", "2,2", "--seed", "3", "-o", str(path))
        args = ("iterate", str(path), "--order", "random", "--seed", "5", "--iters", "40")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_explicit_order_needs_indices(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "two-lines", "--theta", "0.9", "-o", str(path))
        assert run_cli("iterate", str(path), "--order", "explicit").returncode == 1
        # --seed draws the random x0, so every order takes it
        good = run_cli("iterate", str(path), "--order", "explicit", "--indices", "1,2,1,2", "--iters", "4",
                       "--seed", "4")
        assert good.returncode == 0

    def test_invalid_order_exit_one(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "two-lines", "--theta", "0.9", "-o", str(path))
        assert run_cli("iterate", str(path), "--order", "zigzag").returncode == 1

    @pytest.mark.parametrize("flags, named", [
        (["--order", "cyclic", "--coverage-window", "5", "--indices", "9,9"], "--coverage-window"),
        (["--coverage-window", "5"], "--coverage-window"),
        (["--order", "explicit", "--indices", "1,2,3", "--coverage-window", "3"], "--coverage-window"),
        (["--order", "cyclic", "--indices", "9,9"], "--indices"),
        (["--order", "random", "--coverage-window", "5", "--indices", "1,2,3"], "--indices"),
    ], ids=["cyclic-both", "default-window", "explicit-window", "cyclic-indices", "random-indices"])
    def test_a_flag_of_another_order_exits_one_and_names_it(self, tmp_path, capsys, flags, named):
        # only the order that reads a flag takes it; index 9 of N = 3 would otherwise go unchecked
        path = tmp_path / "sys.json"
        path.write_text(dump_system(example3(4)))
        assert cli.main(["iterate", str(path), *flags, "--iters", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"altproj: error: {named} needs --order ")

    @pytest.mark.parametrize("flags", [["--order", "explicit"], ["--x0", "1.0,2.0,3.0"]],
                             ids=["explicit-without-indices", "short-x0"])
    def test_what_the_library_refuses_exits_one_in_one_line(self, tmp_path, capsys, flags):
        # IndexSchedule refuses an explicit order without indices, iterate_vector an x0 of the wrong length
        path = tmp_path / "sys.json"
        path.write_text(dump_system(example3(4)))
        assert cli.main(["iterate", str(path), *flags, "--iters", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("altproj: error: ") and err.count("\n") == 1


class TestBounds:
    def test_huge_iteration_count_exits_one_without_traceback(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(dump_system(two_lines(0.5)))
        assert_huge_count_refused(["bounds", str(path)], "--iters")

    def test_coordinate_example_report(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "example3", "--dim", "12", "-o", str(path))
        trace = tmp_path / "trace.csv"
        result = run_cli("bounds", str(path), "--iters", "40", "--trace", str(trace))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        entries = {e["name"]: e for e in payload["entries"]}
        assert entries["corMain"]["satisfied"]
        assert "uninformative" in entries["DeHu"]["note"]
        header = trace.read_text().splitlines()[0]
        assert header == "n,measured,corMain,DeHu"

    def test_pair_reports_kw_deviation(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "two-lines", "--theta", str(np.pi / 3), "-o", str(path))
        payload = json.loads(run_cli("bounds", str(path)).stdout)
        entries = {e["name"]: e for e in payload["entries"]}
        assert entries["KW"]["max_abs_deviation"] <= 1e-8
        assert entries["DeHu"]["max_abs_deviation"] <= 1e-8
        assert entries["DeHu"]["note"] == "equality expected" and "margin" in entries["DeHu"]
        assert all(e["satisfied"] for e in payload["entries"])

    def test_random_triple_all_bounds_hold(self, tmp_path):
        path = tmp_path / "sys.json"
        run_cli("gen", "--family", "random", "--dim", "9", "--dims", "3,3,3", "--seed", "7", "-o", str(path))
        payload = json.loads(run_cli("bounds", str(path), "--iters", "60").stdout)
        assert all(e["satisfied"] for e in payload["entries"])
        assert not payload["degenerate"]


class TestReportDocuments:
    def test_each_key_is_a_report_field(self, tmp_path, capsys):
        # two fields are renamed; array-valued checks go to --trace, and an unset deviation stays out
        path = tmp_path / "sys.json"
        path.write_text(dump_system(two_lines(0.5)))
        assert cli.main(["angles", str(path)]) == 0
        renamed = {"pairwise_dixmier_reduced": "pairwise", "prefix_friedrichs": "prefix"}
        report = angle_report(two_lines(0.5))
        assert list(json.loads(capsys.readouterr().out)) == [renamed.get(f.name, f.name)
                                                             for f in dataclasses.fields(report)]
        assert cli.main(["bounds", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["degenerate", "entries"]
        for entry, check in zip(payload["entries"], bound_report(two_lines(0.5)).entries, strict=True):
            keys = [f.name for f in dataclasses.fields(check) if f.name not in ("measured", "bound")]
            if check.max_abs_deviation is None:
                keys.remove("max_abs_deviation")
            if np.ndim(check.measured) == 0:
                keys += ["measured", "bound"]
            assert list(entry) == keys
            assert entry == {key: getattr(check, key) for key in keys}

    def test_probe_document_leaves_its_trace_to_the_csv(self, capsys):
        assert cli.main(["probe-slow", "--k", "3", "--horizon", "5"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["x", "success", "achieved_horizon"]


class TestProbeSlow:
    def test_huge_horizon_exits_one_without_traceback(self):
        assert_huge_count_refused(["probe-slow", "--k", "2"], "--horizon")

    def test_success_run(self, tmp_path):
        trace = tmp_path / "probe.csv"
        result = run_cli("probe-slow", "--k", "60", "--seq", "pow:0.5", "--horizon", "100",
                         "--trace", str(trace))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["success"] is True
        assert payload["achieved_horizon"] == 100
        assert len(payload["x"]) == 120
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "n,measured,target"
        measured = np.array([float(l.split(",")[1]) for l in lines[1:]])
        target = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert (measured + 1e-12 >= target).all()

    def test_infeasible_is_informative_not_an_error(self):
        result = run_cli("probe-slow", "--k", "1", "--seq", "log", "--horizon", "100")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["success"] is False
        assert payload["achieved_horizon"] < 100

    def test_all_zero_file_sequence(self, tmp_path):
        seq = tmp_path / "zeros.txt"
        seq.write_text("0 0 0 0 0\n")
        result = run_cli("probe-slow", "--k", "2", "--seq", f"file:{seq}", "--horizon", "5")
        payload = json.loads(result.stdout)
        assert payload["success"] is True
        assert np.linalg.norm(payload["x"]) == pytest.approx(1.0, abs=1e-12)

    def test_oversized_k_exits_one_before_building(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "slow_vector_probe", refuse_to_build)
        k = cli.MAX_DIM // 2 + 1
        assert cli.main(["probe-slow", "--k", str(k), "--horizon", "5"]) == 1
        assert "ambient dimension" in capsys.readouterr().err

    def test_bad_seq_form_exit_one(self):
        assert run_cli("probe-slow", "--k", "2", "--seq", "exp", "--horizon", "5").returncode == 1

    @pytest.mark.parametrize("seq", ["pow:inf", "pow:0", "pow:nan", "pow:-1"])
    def test_a_constant_power_target_exits_one(self, capsys, seq):
        # pow:0 is a constant target and pow:inf an all-zero one, which any x meets
        assert cli.main(["probe-slow", "--k", "3", "--seq", seq, "--horizon", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "power decay needs a finite positive exponent" in err

    def test_rule_flag_is_gone(self):
        result = run_cli("probe-slow", "--k", "2", "--rule", "inv-k", "--horizon", "5")
        assert result.returncode == 1
        assert "unrecognized arguments: --rule" in result.stderr


def readme_commands() -> list[list[str]]:
    """The argument lists of the `altproj ...` lines of the README's "Command line" block, comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("\n```\n", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("altproj ")]


def test_the_readme_commands_run_and_write_numeric_traces(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, argv
    for name in ("trace.csv", "curves.csv", "probe.csv", "deep.csv"):
        with open(name, newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert rows, name
        for row in rows:
            assert len(row) == len(header) and all(np.isfinite(list(map(float, row)))), (name, row)
    # the 1000-pass trace of deep.json sinks below the normal float range: unscaled
    # norms stopped near 1e-162, a scaled walk reaches the subnormals
    with open("deep.csv", newline="", encoding="utf-8") as handle:
        errors = [float(row["measured"]) for row in csv.DictReader(handle)]
    assert min(e for e in errors if e > 0) < 1e-300
