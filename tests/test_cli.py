"""End-to-end command-line behavior: artifacts, exit codes, config handling."""
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import beehive
from beehive import harness
from beehive.cli import (main, write_comparison_csv, write_convergence_csv,
                         write_stats_csv)
from beehive.engine import STRATEGIES
from beehive.harness import ExperimentStats, compare_table


def run_cli(*argv):
    return main(list(argv))


def read_stats_json(path):
    with open(path) as fh:
        return [ExperimentStats(**r) for r in json.load(fh)]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunCommand:
    def test_writes_stats_artifacts(self, tmp_path):
        code = run_cli("run", "--problem", "sphere", "--dim", "2",
                       "--variant", "basic", "--runs", "2", "--max-nfe", "500",
                       "--seed", "3", "--output-dir", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "stats.csv")
        assert rows[0] == ["problem", "variant", "dim", "runs",
                           "best", "mean", "sd", "mean_nfe"]
        assert len(rows) == 2
        assert rows[1][:4] == ["sphere", "basic", "2", "2"]
        stats = read_stats_json(tmp_path / "stats.json")
        assert len(stats) == 1
        s = stats[0]
        assert s.problem == "sphere" and s.variant == "basic"
        assert s.runs == 2 and s.dim == 2
        assert s.best <= s.mean
        assert s.mean_nfe >= 500

    def test_json_round_trip_keeps_full_precision(self, tmp_path):
        run_cli("run", "--problem", "ackley", "--dim", "3", "--runs", "2",
                "--max-nfe", "600", "--seed", "5", "--output-dir", str(tmp_path))
        with open(tmp_path / "stats.json") as fh:
            raw = json.load(fh)
        stats = read_stats_json(tmp_path / "stats.json")
        assert vars(stats[0]) == raw[0]

    def test_traces_flag_writes_per_run_and_median_files(self, tmp_path):
        code = run_cli("run", "--problem", "sphere", "--dim", "2",
                       "--variant", "sac2", "--runs", "2", "--max-nfe", "400",
                       "--seed", "3", "--traces", "--output-dir", str(tmp_path))
        assert code == 0
        for seed in (3, 4):
            rows = read_csv(tmp_path / f"sphere_sac2_trace_seed{seed}.csv")
            assert rows[0] == ["nfe", "best"]
            assert len(rows) > 2
            bests = [float(r[1]) for r in rows[1:]]
            assert bests == sorted(bests, reverse=True) or all(
                b2 <= b1 for b1, b2 in zip(bests, bests[1:])
            )
        rows = read_csv(tmp_path / "sphere_sac2_convergence.csv")
        assert rows[0] == ["nfe", "median_best"]

    def test_accuracy_stop_prints_zero_cell(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "schaffer", "--dim", "2",
                       "--variant", "basic", "--runs", "1", "--seed", "101",
                       "--max-nfe", "1000000", "--output-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "best=0 " in out
        rows = read_csv(tmp_path / "stats.csv")
        assert rows[1][4] == "0"

    def test_lennard_jones_atoms_flag(self, tmp_path):
        code = run_cli("run", "--problem", "lennard_jones", "--atoms", "2",
                       "--variant", "sac2", "--runs", "1", "--max-nfe", "20000",
                       "--seed", "1", "--output-dir", str(tmp_path))
        assert code == 0
        s = read_stats_json(tmp_path / "stats.json")[0]
        assert s.dim == 6
        assert abs(s.best - (-1.0)) < 1e-2

    @pytest.mark.parametrize("problem,flag,value", [
        ("gas_production", "--dim", "5"),
        ("sphere", "--atoms", "7"),
        ("lennard_jones", "--dim", "6"),  # --atoms alone sizes the cluster
    ])
    def test_size_flag_that_does_not_apply_exits_2(self, tmp_path, capsys, problem, flag, value):
        code = run_cli("run", "--problem", problem, flag, value, "--runs", "1",
                       "--max-nfe", "100", "--output-dir", str(tmp_path))
        assert code == 2
        assert f"{flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("problem,flags", [
        ("sphere", ()),
        ("sphere", ("--dim", "3")),
        ("gear_train", ()),
        ("lennard_jones", ()),
        ("lennard_jones", ("--atoms", "2")),
    ])
    def test_run_and_compare_size_a_problem_alike(self, tmp_path, problem, flags):
        common = (*flags, "--runs", "1", "--max-nfe", "100", "--format", "json")
        assert run_cli("run", "--problem", problem, *common,
                       "--output-dir", str(tmp_path / "run")) == 0
        assert run_cli("compare", "--problems", problem, "--variants", "basic,sac2", *common,
                       "--output-dir", str(tmp_path / "compare")) == 0
        [by_run] = read_stats_json(tmp_path / "run" / "stats.json")
        by_compare = read_stats_json(tmp_path / "compare" / "stats.json")
        assert {s.dim for s in by_compare} == {by_run.dim}
        # one sweep path: run's record is compare's record for the same variant
        assert by_run == next(s for s in by_compare if s.variant == by_run.variant)

    def test_convergence_csv_writes_every_nfe_digit(self, tmp_path):
        # six significant digits would print 1000030 and 1000034 alike
        grid = np.array([0, 400, 999980, 1000030, 1000034, 1000039])
        write_convergence_csv(tmp_path / "c.csv", grid, np.linspace(1.0, 0.5, grid.size))
        rows = read_csv(tmp_path / "c.csv")
        assert [row[0] for row in rows[1:]] == [
            "0", "400", "999980", "1000030", "1000034", "1000039"]

    def test_stats_csv_and_console_write_every_nfe_digit(self, tmp_path, capsys):
        # six significant digits would print these as 1.00004e+06 and 65288.6
        stats = [ExperimentStats("sphere", "basic", 2, 30, 0.0, 0.0, 0.0, nfe)
                 for nfe in (1000039.5, 65288.61279485744, 350.0)]
        write_stats_csv(tmp_path / "stats.csv", stats)
        rows = read_csv(tmp_path / "stats.csv")
        assert [row[-1] for row in rows[1:]] == ["1000039.5", "65288.61279485744", "350.0"]
        assert run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "3",
                       "--max-nfe", "300", "--output-dir", str(tmp_path / "out")) == 0
        [s] = read_stats_json(tmp_path / "out" / "stats.json")
        assert capsys.readouterr().out.endswith(f" mean_nfe={s.mean_nfe!r}\n")
        assert read_csv(tmp_path / "out" / "stats.csv")[1][-1] == repr(s.mean_nfe)

    def test_format_json_skips_csv(self, tmp_path):
        run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                "--max-nfe", "300", "--format", "json",
                "--output-dir", str(tmp_path))
        assert (tmp_path / "stats.json").exists()
        assert not (tmp_path / "stats.csv").exists()


class TestCompareCommand:
    def test_comparison_artifacts(self, tmp_path):
        code = run_cli("compare", "--problems", "sphere,ackley", "--dim", "2",
                       "--variants", "basic,sac2", "--baseline", "sac2",
                       "--runs", "1", "--max-nfe", "400", "--seed", "2",
                       "--output-dir", str(tmp_path))
        assert code == 0
        stats = read_stats_json(tmp_path / "stats.json")
        assert {(s.problem, s.variant) for s in stats} == {
            ("sphere", "basic"), ("sphere", "sac2"),
            ("ackley", "basic"), ("ackley", "sac2"),
        }
        rows = read_csv(tmp_path / "comparison.csv")
        assert rows[0] == ["problem", "nfe_basic", "nfe_sac2", "ar_sac2_vs_basic"]
        assert [r[0] for r in rows[1:]] == ["sphere", "ackley", "average_ar"]
        with open(tmp_path / "comparison.json") as fh:
            doc = json.load(fh)
        assert doc["baseline"] == "sac2"
        assert set(doc["acceleration_rate"]) == {"basic"}

    def test_size_flags_go_only_to_the_problems_they_size(self, tmp_path):
        code = run_cli("compare", "--problems", "sphere,gas_production,lennard_jones",
                       "--dim", "3", "--atoms", "2", "--variants", "basic,sac2",
                       "--runs", "1", "--max-nfe", "200", "--output-dir", str(tmp_path))
        assert code == 0
        dims = {s.problem: s.dim for s in read_stats_json(tmp_path / "stats.json")}
        assert dims == {"sphere": 3, "gas_production": 2, "lennard_jones": 6}

    @pytest.mark.parametrize("problems,flag,value", [
        ("gas_production,air_heater", "--dim", "5"),
        ("lennard_jones", "--dim", "5"),
        ("sphere,gas_production", "--atoms", "7"),
    ])
    def test_size_flag_that_sizes_no_listed_problem_exits_2(
            self, tmp_path, capsys, problems, flag, value):
        code = run_cli("compare", "--problems", problems, flag, value,
                       "--variants", "basic,sac2", "--runs", "1", "--max-nfe", "100",
                       "--output-dir", str(tmp_path))
        assert code == 2
        assert f"{flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_format_csv_writes_no_json(self, tmp_path):
        code = run_cli("compare", "--problems", "sphere", "--dim", "2",
                       "--variants", "basic,sac2", "--runs", "1", "--max-nfe", "300",
                       "--format", "csv", "--output-dir", str(tmp_path))
        assert code == 0
        assert read_csv(tmp_path / "comparison.csv")[0][0] == "problem"
        assert (tmp_path / "stats.csv").exists()
        assert not list(tmp_path.glob("*.json"))

    def test_comparison_csv_writes_every_nfe_digit(self, tmp_path):
        stats = [ExperimentStats(problem, variant, 2, 30, 0.0, 0.0, 0.0, nfe)
                 for problem, variant, nfe in (("sphere", "basic", 1000039.5),
                                               ("sphere", "sac2", 65288.61279485744),
                                               ("ackley", "basic", 700.0),
                                               ("ackley", "sac2", 350.0))]
        write_comparison_csv(tmp_path / "c.csv", compare_table(stats, "sac2"))
        rows = read_csv(tmp_path / "c.csv")
        assert [row[1:3] for row in rows[1:3]] == [["1000039.5", "65288.61279485744"],
                                                   ["700.0", "350.0"]]

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        code = run_cli("compare", "--problems", "sphere", "--variants",
                       "basic,sac", "--baseline", "sac2", "--runs", "1",
                       "--max-nfe", "300", "--output-dir", str(tmp_path))
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,named", [
        ("--variants", "basic,basic", "argument --variants: 'basic,basic' names basic twice"),
        ("--variants", "basic,,sac2", "argument --variants: 'basic,,sac2' has an empty name"),
        ("--problems", "sphere, sphere", "argument --problems: 'sphere, sphere' names sphere"),
        ("--problems", ",", "argument --problems: ',' has an empty name"),
        ("--problems", "sphere,", "argument --problems: 'sphere,' has an empty name"),
    ])
    def test_empty_or_repeated_name_exits_2_naming_flag_and_value(
            self, tmp_path, capsys, flag, value, named):
        args = {"--problems": "sphere", "--variants": "basic,sac2", "--baseline": "basic",
                flag: value}
        code = run_cli("compare", *[token for item in args.items() for token in item],
                       "--runs", "1", "--max-nfe", "100", "--output-dir", str(tmp_path))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_single_variant_is_usage_error(self, tmp_path):
        code = run_cli("compare", "--problems", "sphere", "--variants", "sac2",
                       "--baseline", "sac2", "--runs", "1", "--max-nfe", "300",
                       "--output-dir", str(tmp_path))
        assert code == 2


class TestBenchCommand:
    def test_benchmark_suite_smoke(self, tmp_path):
        code = run_cli("bench", "benchmarks", "--runs", "1", "--max-nfe", "2000",
                       "--seed", "1", "--output-dir", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "stats.csv")
        # 5 functions x 2 dimensions x 5 variants
        assert len(rows) == 51
        dims = {(r[0], r[2]) for r in rows[1:]}
        assert ("sphere", "30") in dims and ("sphere", "60") in dims
        assert ("schaffer", "2") in dims and ("schaffer", "3") in dims

    def test_dim_flag_is_not_a_bench_option(self, tmp_path, capsys):
        code = run_cli("bench", "engineering", "--dim", "5", "--runs", "1",
                       "--max-nfe", "100", "--output-dir", str(tmp_path))
        assert code == 2
        assert "--dim" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_engineering_atoms_size_only_lennard_jones(self, tmp_path):
        code = run_cli("bench", "engineering", "--atoms", "2", "--runs", "1",
                       "--max-nfe", "200", "--output-dir", str(tmp_path))
        assert code == 0
        dims = {s.problem: s.dim for s in read_stats_json(tmp_path / "stats.json")}
        assert dims == {"gas_production": 2, "air_heater": 3, "gear_train": 4,
                        "lennard_jones": 6, "gas_compressor": 3}

    def test_atoms_flag_without_lennard_jones_exits_2(self, tmp_path, capsys):
        code = run_cli("bench", "benchmarks", "--atoms", "7", "--runs", "1",
                       "--max-nfe", "100", "--output-dir", str(tmp_path))
        assert code == 2
        assert "--atoms 7" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_engineering_suite_writes_comparison(self, tmp_path):
        code = run_cli("bench", "engineering", "--runs", "1", "--max-nfe", "1500",
                       "--seed", "1", "--output-dir", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "stats.csv")
        assert len(rows) == 26
        cmp_rows = read_csv(tmp_path / "comparison.csv")
        assert cmp_rows[0][0] == "problem"
        assert "nfe_gbest" not in cmp_rows[0]
        assert len(cmp_rows) == 7  # header + 5 problems + footer


class TestSweepPool:
    def test_parallel_bench_writes_the_serial_bytes(self, tmp_path):
        for jobs in ("1", "2"):
            code = run_cli("bench", "engineering", "--runs", "1", "--max-nfe", "300",
                           "--jobs", jobs, "--output-dir", str(tmp_path / jobs))
            assert code == 0
        for name in ("stats.json", "comparison.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_parallel_run_writes_the_serial_traces(self, tmp_path):
        """Each run's trace comes back from a worker by pickle, then feeds the
        per-run trace CSVs and the convergence CSV."""
        for jobs in ("1", "2"):
            code = run_cli("run", "--problem", "rastrigin", "--dim", "5", "--runs", "2",
                           "--max-nfe", "2000", "--traces", "--jobs", jobs,
                           "--output-dir", str(tmp_path / jobs))
            assert code == 0
        names = ("rastrigin_basic_trace_seed1.csv", "rastrigin_basic_trace_seed2.csv",
                 "rastrigin_basic_convergence.csv")
        for name in names:
            serial = (tmp_path / "1" / name).read_bytes()
            assert len(serial.splitlines()) > 2
            assert serial == (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.parametrize("argv", [
        ("bench", "all", "--runs", "1"),
        ("compare", "--problems", "sphere,gear_train", "--variants", "basic,sac2",
         "--runs", "2"),
    ], ids=["bench-all", "compare"])
    def test_a_sweep_starts_one_pool(self, tmp_path, monkeypatch, argv):
        pools = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        code = run_cli(*argv, "--max-nfe", "300", "--jobs", "2",
                       "--output-dir", str(tmp_path))
        assert code == 0
        assert pools == [2]


class TestArtifactBytes:
    """Every artifact of two seeded runs, pinned by the SHA-256 of its bytes.

    The values follow the platform's arithmetic as the goldens in
    `test_golden.py` do; the CSV dialect, header rows, cell formats and JSON
    layout follow the writers alone. A change to any of them moves a digest.
    """

    RUN = (("run", "--problem", "rastrigin", "--dim", "5", "--variant", "sac1",
            "--runs", "3", "--max-nfe", "3000", "--traces"), {
        "rastrigin_sac1_convergence.csv":
            "c2b442be949c3ead4195ae35b6e4af085a84072ea7c985c8ee3efcfd22ee1f50",
        "rastrigin_sac1_trace_seed1.csv":
            "3917a5e955b026062c8a9fc8567eae856cd8a02f273ae9fe3f3cbee4c10a9e6a",
        "rastrigin_sac1_trace_seed2.csv":
            "c8b9102aa7fea51152fdb399fbda7100dfa110b1c04e10c849a7b9d7ba42fbeb",
        "rastrigin_sac1_trace_seed3.csv":
            "aa6158de2f2060b9927c70fbf91bf566de1117c794f28e49f0dff971702f3773",
        "stats.csv": "7b6a9e02a5b98195cc8ebb20607f7f64a968fb04395149d9922d5f6eee4808f4",
        "stats.json": "ae0d9e2761d272fb73a19e1824d6d5d913d862d1cf172ddfc86d6d212cd14cf6",
    })
    COMPARE = (("compare", "--problems", "gas_production,air_heater",
                "--variants", "basic,sac,sac2", "--runs", "2", "--max-nfe", "2000"), {
        "comparison.csv": "33c1b8dd016556e94ea0485c87a37c607c5f7f372acdff67682a23081a860aff",
        "comparison.json": "787359698b29457746305bd7c4008c354dd4b33e19c722e70a3a236abef3ddf8",
        "stats.csv": "4e35d8b7062f2d9a7e8d1e5b08452d6e70a1ae4dc1e461d7c55e2c686952a9c7",
        "stats.json": "91d6399295f4fabbb8aedd1cba080b3b2d5c9358840d2821e944db1de992974f",
    })

    @pytest.mark.parametrize("argv,digests", [RUN, COMPARE], ids=["run-traces", "compare"])
    def test_every_artifact_has_its_pinned_bytes(self, tmp_path, argv, digests):
        assert run_cli(*argv, "--output-dir", str(tmp_path)) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert written == digests


class TestErrorsAndConfig:
    @pytest.mark.parametrize("flag,value,named", [
        ("--colony", "7", "argument --colony: 7 is not an even integer >= 8"),
        ("--limit", "0", "argument --limit: 0 is not an integer >= 1"),
        ("--runs", "0", "argument --runs: 0 is not an integer >= 1"),
        ("--jobs", "0", "argument --jobs: 0 is not an integer >= 1"),
        ("--max-nfe", "0", "argument --max-nfe: 0 is not an integer >= 1"),
        ("--atoms", "1", "argument --atoms: 1 is not an integer >= 2"),
        ("--atoms", "-3", "argument --atoms: -3 is not an integer >= 2"),
        ("--dim", "0", "argument --dim: 0 is not an integer >= 1"),
        # random.Random seeds with abs(seed): seed -2 would replay seed 2
        ("--seed", "-2", "argument --seed: -2 is not an integer >= 0"),
    ])
    def test_bad_count_exits_2_naming_flag_and_value(self, tmp_path, capsys, flag, value,
                                                     named):
        commands = [("run", "--problem", "sphere", "--dim", "2"),
                    ("compare", "--problems", "lennard_jones,sphere,gas_production",
                     "--variants", "basic,sac2")]
        if flag != "--dim":  # bench has no --dim
            commands.append(("bench", "engineering"))
        for command in commands:
            code = run_cli(*command, "--max-nfe", "100", flag, value,
                           "--output-dir", str(tmp_path))
            assert code == 2
            assert named in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("joined", (True, False), ids=("joined", "separate"))
    @pytest.mark.parametrize("flag,value", [
        ("--c-factor", "-1"), ("--c-factor", "inf"), ("--c-factor", "-1e-3"),
        ("--accuracy", "nan"), ("--accuracy", "-1e-9"), ("--accuracy", "-2.5E+3"),
    ])
    def test_bad_real_exits_2_naming_flag_and_value(self, tmp_path, capsys, flag, value,
                                                    joined):
        """The same refusal from every subcommand, with the value as given,
        both as `--flag=value` and as two tokens: a negative number with an
        exponent is a value, not a flag."""
        given = [f"{flag}={value}"] if joined else [flag, value]
        for command in (("run", "--problem", "sphere", "--dim", "2"),
                        ("compare", "--problems", "sphere,gas_production",
                         "--variants", "basic,sac2"),
                        ("bench", "engineering")):
            code = run_cli(*command, "--max-nfe", "100", *given,
                           "--output-dir", str(tmp_path))
            assert code == 2
            assert f"argument {flag}: {value} is not a finite number >= 0" in \
                capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_adaptive_colony_above_sn_max_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                       "--max-nfe", "100", "--colony", "300", "--variant", "sac",
                       "--output-dir", str(tmp_path))
        assert code == 2
        assert "initial_colony 300 gives 150 sources, more than sn_max 100" in \
            capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()
        # without adaptive sizing, sn_max does not apply
        assert run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                       "--max-nfe", "200", "--colony", "300", "--variant", "sac",
                       "--no-adaptive", "--output-dir", str(tmp_path)) == 0

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "rosenbrock",
                       "--output-dir", str(tmp_path))
        assert code == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_unwritable_output_dir_exits_3(self, tmp_path):
        blocker = tmp_path / "stats_dir"
        blocker.write_text("not a directory")
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                       "--max-nfe", "300", "--output-dir", str(blocker))
        assert code == 3

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("run", "--problem", "rastrigin", "--dim", "3", "--runs", "1",
                "--max-nfe", "400", "--seed", "99", "--output-dir", str(out_a))
        monkeypatch.setenv("BEEHIVE_SEED", "99")
        run_cli("run", "--problem", "rastrigin", "--dim", "3", "--runs", "1",
                "--max-nfe", "400", "--seed", "1", "--output-dir", str(out_b))
        assert (out_a / "stats.json").read_text() == (out_b / "stats.json").read_text()

    def test_bad_env_seed_exits_2(self, monkeypatch, tmp_path, capsys):
        for value in ("abc", "-2"):  # a negative seed would replay its absolute value
            monkeypatch.setenv("BEEHIVE_SEED", value)
            code = run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                           "--max-nfe", "300", "--output-dir", str(tmp_path))
            assert code == 2
            assert f"BEEHIVE_SEED must be an integer >= 0, not {value!r}" in \
                capsys.readouterr().err
            assert not (tmp_path / "stats.json").exists()

    def test_config_file_sets_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment defaults\n"
            "runs = 1\n"
            "max-nfe = 400\n"
            "seed = 8\n"
            "variant = sac1\n"
        )
        out = tmp_path / "out"
        code = run_cli("run", "--problem", "sphere", "--dim", "2",
                       "--runs", "2", "--config", str(cfg),
                       "--output-dir", str(out))
        assert code == 0
        s = read_stats_json(out / "stats.json")[0]
        assert s.runs == 2  # the command-line flag beats the file
        assert s.variant == "sac1"  # file value fills the unset option
        assert 400 <= s.mean_nfe < 1200

    def test_config_equals_form_is_read(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs = 1\nvariant = sac1\n")
        out = tmp_path / "out"
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--max-nfe", "300",
                       f"--config={cfg}", "--output-dir", str(out))
        assert code == 0
        s = read_stats_json(out / "stats.json")[0]
        assert s.runs == 1 and s.variant == "sac1"

    def test_config_seed_above_2_to_the_53_runs_exactly(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed = 9007199254740993\nruns = 1\n")
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--max-nfe", "200",
                       "--traces", "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "sphere_basic_trace_seed9007199254740993.csv").exists()

    @pytest.mark.parametrize("line,named", [
        ("format = xml", "xml"),
        ("runs = 2.7", "2.7"),
        ("maxnfe = 5", "maxnfe"),
        ("max-nfe = 1e3", "1e3"),
        ("seed = -2", "argument --seed: -2 is not an integer >= 0"),
        # a truncated key is not read as the flag it starts
        ("max = 300", "--max=300"),
        ("lim = 5", "--lim=5"),
        # a config file cannot pull in another one
        ("config = inner.cfg", "config = inner.cfg"),
    ])
    def test_bad_config_file_exits_2_and_names_it(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--max-nfe", "300",
                       "--config", str(cfg), "--output-dir", str(tmp_path))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("flags", ["--max 100", "--lim 5", "--max-n=100", "--c-fact 2"])
    def test_abbreviated_flag_exits_2_and_names_it(self, tmp_path, capsys, flags):
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                       *flags.split(), "--output-dir", str(tmp_path))
        assert code == 2
        assert flags.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "sphere",
                       "--config", str(tmp_path / "nope.cfg"),
                       "--output-dir", str(tmp_path))
        assert code == 2
        assert "config" in capsys.readouterr().err

    def test_malformed_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("runs 3\n")
        code = run_cli("run", "--problem", "sphere", "--config", str(cfg),
                       "--output-dir", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--c-factor", "nan"),
        ("--c-factor", "-inf"),
        ("--c-factor", "-1"),  # psi ~ U[0, C) needs C >= 0
        ("--max-nfe", "0"),
        ("--accuracy", "-1e-08"),
        ("--accuracy", "inf"),
        ("--accuracy", "nan"),
        ("--jobs", "-1"),
    ])
    def test_bad_value_exits_2_and_names_it(self, tmp_path, capsys, flag, value):
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "2",
                       "--max-nfe", "300", f"{flag}={value}", "--output-dir", str(tmp_path))
        assert code == 2
        assert f"argument {flag}: {value} is not" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_usage_error_exits_nonzero(self, capsys):
        code = run_cli("run")  # --problem is required
        assert code == 2
        capsys.readouterr()


SWITCH_ON = ("1", "true", "yes", "on", "TRUE", "On")
SWITCH_OFF = ("0", "false", "no", "off", "")
INT_KEYS = ("runs", "seed", "colony", "limit", "max-nfe", "jobs", "dim", "atoms")
FLOAT_KEYS = ("c-factor", "accuracy")

settings_strategy = st.fixed_dictionaries({
    "runs": st.integers(1, 2),
    "seed": st.integers(0, 2**64),
    "limit": st.integers(1, 200),
    "c-factor": st.floats(0, 10),
    "colony": st.integers(4, 10).map(lambda n: 2 * n),
    "max-nfe": st.integers(1, 300),
    "variant": st.sampled_from(STRATEGIES),
    "format": st.sampled_from(("csv", "json", "both")),
})
switches_strategy = st.fixed_dictionaries(
    {k: st.booleans() for k in ("traces", "no-adaptive", "sample-sd")})


def rejects(convert, text):
    try:
        convert(text)
    except ValueError:
        return True
    return False


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def artifacts(out_dir):
    return {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}


class TestProcessExitCodes:
    """`python -m beehive.cli` hands `main`'s code to the process status."""

    @pytest.mark.parametrize("config,output,status", [
        ("runs = 1\nvariant = sac1\n", "out", 0),
        ("format = xml\n", "out", 2),  # a bad config value
        ("runs = 1\n", "blocker/out", 3),  # the output directory sits under a file
    ])
    def test_exit_status(self, tmp_path, config, output, status):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        (tmp_path / "blocker").write_text("not a directory")
        src = str(Path(beehive.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("BEEHIVE_SEED", None)
        done = subprocess.run(
            [sys.executable, "-m", "beehive.cli", "run", "--problem", "sphere",
             "--dim", "2", "--max-nfe", "200", f"--config={cfg}",
             "--output-dir", str(tmp_path / output)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == status, done.stderr
        assert (tmp_path / output / "stats.json").exists() == (status == 0)


class TestConfigFuzz:
    @settings(max_examples=25, deadline=None)
    @given(values=settings_strategy, switches=switches_strategy,
           underscores=st.booleans(), data=st.data())
    def test_config_file_equals_flags(self, values, switches, underscores, data):
        base = ["run", "--problem", "sphere", "--dim", "2"]
        flags = [f"--{k}={v}" for k, v in values.items()]
        flags += [f"--{k}" for k, on in switches.items() if on]
        words = {k: data.draw(st.sampled_from(SWITCH_ON if on else SWITCH_OFF))
                 for k, on in switches.items()}
        lines = [f"{k.replace('-', '_') if underscores else k} = {v}"
                 for k, v in {**values, **words}.items()]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp, "exp.cfg")
            cfg.write_text("\n".join(lines) + "\n")
            by_flags, by_file = Path(tmp, "flags"), Path(tmp, "file")
            assert quiet_main(base + flags + ["--output-dir", str(by_flags)]) == 0
            assert quiet_main(base + ["--config", str(cfg), "--output-dir", str(by_file)]) == 0
            from_file = artifacts(by_file)
            assert artifacts(by_flags) == from_file
            assert ("stats.json" in from_file) == (values["format"] != "csv")

    @pytest.mark.parametrize("key,value", [
        ("seed", "-1"), ("seed", str(-2**64)), ("c-factor", "-0.5"), ("c-factor", "-10"),
    ])
    def test_a_negative_seed_or_c_factor_exits_2_both_ways(self, key, value):
        """A negative seed would replay its absolute value, and gbest draws
        psi from [0, C): either is refused as a flag and from the file, with
        exit code 2, before any run writes its output directory."""
        base = ["run", "--problem", "sphere", "--dim", "2", "--runs", "1", "--max-nfe", "100"]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp, "exp.cfg")
            cfg.write_text(f"{key} = {value}\n")
            by_flags, by_file = Path(tmp, "flags"), Path(tmp, "file")
            assert quiet_main(base + [f"--{key}={value}", "--output-dir", str(by_flags)]) == 2
            assert quiet_main(base + ["--config", str(cfg), "--output-dir", str(by_file)]) == 2
            assert not by_flags.exists() and not by_file.exists()

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(INT_KEYS + FLOAT_KEYS),
           value=st.text().filter(lambda v: len(f"x{v}x".splitlines()) == 1),
           via_file=st.booleans())
    def test_non_number_exits_2(self, key, value, via_file):
        convert = float if key in FLOAT_KEYS else int
        assume(rejects(convert, value) and rejects(convert, value.strip()))
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                    "--max-nfe", "100", "--output-dir", tmp]
            if via_file:
                cfg = Path(tmp, "bad.cfg")
                cfg.write_text(f"{key} = {value}\n")
                argv += ["--config", str(cfg)]
            else:
                argv.append(f"--{key}={value}")
            assert quiet_main(argv) == 2
            assert not Path(tmp, "stats.json").exists()
