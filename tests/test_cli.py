"""End-to-end command-line behavior: artifacts, exit codes, config handling."""
import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from beehive.cli import main
from beehive.engine import STRATEGIES
from beehive.harness import ExperimentStats


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
    ])
    def test_size_flag_that_does_not_apply_exits_2(self, tmp_path, capsys, problem, flag, value):
        code = run_cli("run", "--problem", problem, flag, value, "--runs", "1",
                       "--max-nfe", "100", "--output-dir", str(tmp_path))
        assert code == 2
        assert f"{flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

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

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        code = run_cli("compare", "--problems", "sphere", "--variants",
                       "basic,sac", "--baseline", "sac2", "--runs", "1",
                       "--max-nfe", "300", "--output-dir", str(tmp_path))
        assert code == 2
        assert "baseline" in capsys.readouterr().err

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


class TestErrorsAndConfig:
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
        monkeypatch.setenv("BEEHIVE_SEED", "abc")
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "1",
                       "--max-nfe", "300", "--output-dir", str(tmp_path))
        assert code == 2
        assert "abc" in capsys.readouterr().err

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
        ("--max-nfe", "0"),
        ("--accuracy", "-1e-08"),
        ("--accuracy", "inf"),
        ("--jobs", "-1"),
    ])
    def test_bad_value_exits_2_and_names_it(self, tmp_path, capsys, flag, value):
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--runs", "2",
                       "--max-nfe", "300", f"{flag}={value}", "--output-dir", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and value in err
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
    "seed": st.integers(-2**64, 2**64),
    "limit": st.integers(1, 200),
    "c-factor": st.floats(-10, 10, allow_nan=False),
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
            assert quiet_main(base + ["--config", str(cfg),
                                      "--output-dir", str(by_file)]) == 0
            from_file = artifacts(by_file)
            assert artifacts(by_flags) == from_file
            assert ("stats.json" in from_file) == (values["format"] != "csv")

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
