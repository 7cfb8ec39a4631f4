"""Command-line experiment driver: run, compare, and bench subcommands.

Artifacts: a stats CSV (`problem,variant,dim,runs,best,mean,sd,mean_nfe`)
and a comparison CSV with per-problem NFE and acceleration-rate columns,
each with a JSON mirror, and with `run --traces` per-run trace CSVs
(`nfe,best`) and a median convergence CSV (`nfe,median_best`), which have
none. JSON keeps full precision; CSV statistics use the 3-significant-digit,
zero-below-threshold table style, and the CSVs' NFE cells and trace values
hold every digit.

Exit codes: 0 success, 2 usage/configuration error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

from .core import ConfigurationError
from .engine import STRATEGIES, RunResult, TerminationRule, VariantConfig
from .harness import (
    ComparisonTable,
    ExperimentStats,
    aggregate,
    compare_table,
    convergence_export,
    format_stat,
    run_batches,
)
from .problems import BENCHMARK_DIMENSIONS, BENCHMARK_NAMES, ENGINEERING_NAMES, make_problem

STATS_HEADER = [field.name for field in dataclasses.fields(ExperimentStats)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_stats_csv(path: Path, stats: list[ExperimentStats]) -> None:
    _write_csv(path, STATS_HEADER,
               ([s.problem, s.variant, s.dim, s.runs,
                 format_stat(s.best), format_stat(s.mean), format_stat(s.sd),
                 repr(s.mean_nfe)] for s in stats))


def write_stats_json(path: Path, stats: list[ExperimentStats]) -> None:
    _write_json(path, [vars(s) for s in stats])


def write_trace_csv(path: Path, result: RunResult) -> None:
    _write_csv(path, ["nfe", "best"], ([nfe, repr(best)] for nfe, best in result.trace))


def write_comparison_csv(path: Path, table: ComparisonTable) -> None:
    others = [v for v in table.variants if v != table.baseline]
    header = (["problem"] + [f"nfe_{v}" for v in table.variants]
              + [f"ar_{table.baseline}_vs_{v}" for v in others])
    rows = [[p] + [repr(table.nfe[v][p]) for v in table.variants]
            + ["---" if table.slower[v][p] else f"{table.ar[v][p]:.2f}" for v in others]
            for p in table.problems]
    rows.append(["average_ar"] + [""] * len(table.variants)
                + [f"{table.average_ar[v]:.2f}" for v in others])
    _write_csv(path, header, rows)


def write_comparison_json(path: Path, table: ComparisonTable) -> None:
    _write_json(path, {
        "baseline": table.baseline,
        "problems": list(table.problems),
        "variants": list(table.variants),
        "nfe": table.nfe,
        "acceleration_rate": table.ar,
        "baseline_slower": table.slower,
        "average_acceleration_rate": table.average_ar,
    })


def write_convergence_csv(path: Path, grid, median) -> None:
    _write_csv(path, ["nfe", "median_best"],
               ([int(n), repr(float(f))] for n, f in zip(grid, median)))


# ---------------------------------------------------------------------------
# Experiment plumbing
# ---------------------------------------------------------------------------

def _sweep(problems, strategies, args) -> tuple[list[ExperimentStats], list[list[RunResult]]]:
    """The stats and the runs of every strategy on every problem, problem by
    problem; all the runs share one `run_batches` call, so one process pool.
    The accuracy stop applies only where an exact optimum is known (benchmarks)."""
    pairs = [(problem, strategy) for problem in problems for strategy in strategies]
    batches = run_batches(
        [(problem,
          VariantConfig(strategy=strategy, limit=args.limit, c_factor=args.c_factor,
                        adaptive_sizing=False if args.no_adaptive else None,
                        initial_colony=args.colony),
          TerminationRule(max_nfe=args.max_nfe, accuracy=args.accuracy,
                          target=problem.known_optimum))
         for problem, strategy in pairs],
        args.runs, args.seed, args.jobs)
    stats = [aggregate(problem, strategy, results, sample_sd=args.sample_sd)
             for (problem, strategy), results in zip(pairs, batches)]
    return stats, batches


def _problems(args, names, dims=None) -> list:
    """The named problems, in order, sized by the flags: --dim (for bench, each
    benchmark's own `dims`) sizes the benchmarks and --atoms the Lennard-Jones
    cluster. A size flag that sizes none of the named problems is an error."""
    dim = getattr(args, "dim", None)  # bench has no --dim
    problems = []
    for name in names:
        if name in BENCHMARK_NAMES:
            problems += [make_problem(name, dimension=d)
                         for d in (dims[name] if dims else (dim,))]
        else:
            problems.append(
                make_problem(name, n_atoms=args.atoms if name == "lennard_jones" else None))
    for flag, value, sized in (("--dim", dim, BENCHMARK_NAMES),
                               ("--atoms", args.atoms, ("lennard_jones",))):
        if value is not None and not any(name in sized for name in names):
            raise ConfigurationError(
                f"{flag} {value} sizes none of the problems {', '.join(names)}; "
                f"it applies to {', '.join(sized)}")
    return problems


def _emit(out_dir: Path, fmt: str, stats: list[ExperimentStats],
          table: ComparisonTable | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt in ("csv", "both"):
        write_stats_csv(out_dir / "stats.csv", stats)
        if table is not None:
            write_comparison_csv(out_dir / "comparison.csv", table)
    if fmt in ("json", "both"):
        write_stats_json(out_dir / "stats.json", stats)
        if table is not None:
            write_comparison_json(out_dir / "comparison.json", table)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    [problem] = _problems(args, [args.problem])
    [stats], [results] = _sweep([problem], [args.variant], args)
    out_dir = Path(args.output_dir)
    _emit(out_dir, args.format, [stats])
    if args.traces:
        for r in results:
            write_trace_csv(
                out_dir / f"{problem.name}_{args.variant}_trace_seed{r.seed}.csv", r
            )
        grid, median = convergence_export(results)
        write_convergence_csv(
            out_dir / f"{problem.name}_{args.variant}_convergence.csv", grid, median
        )
    print(f"{stats.problem} {stats.variant}: best={format_stat(stats.best)} "
          f"mean={format_stat(stats.mean)} sd={format_stat(stats.sd)} "
          f"mean_nfe={stats.mean_nfe!r}")
    return 0


def cmd_compare(args) -> int:
    variants = args.variants
    if len(variants) < 2:
        raise ConfigurationError("compare needs at least 2 variants")
    if args.baseline not in variants:
        raise ConfigurationError(f"baseline {args.baseline!r} is not among the variants")
    all_stats, _ = _sweep(_problems(args, args.problems), variants, args)
    table = compare_table(all_stats, args.baseline)
    _emit(Path(args.output_dir), args.format, all_stats, table)
    for v, avg in table.average_ar.items():
        print(f"average AR {table.baseline} vs {v}: {avg:.2f}%")
    return 0


def cmd_bench(args) -> int:
    out_dir = Path(args.output_dir)
    names = []
    if args.suite in ("benchmarks", "all"):
        names += BENCHMARK_NAMES
    if args.suite in ("engineering", "all"):
        names += ENGINEERING_NAMES
    all_stats, _ = _sweep(_problems(args, names, BENCHMARK_DIMENSIONS), STRATEGIES, args)
    comparison = None
    if args.suite in ("engineering", "all"):
        comparison = compare_table(
            [s for s in all_stats if s.problem in ENGINEERING_NAMES and s.variant != "gbest"],
            "sac2"
        )
    _emit(out_dir, args.format, all_stats, comparison)
    print(f"wrote {len(all_stats)} stats records to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

# store-true flags: a config file switches them on with a truthy value
_SWITCHES = ("traces", "no-adaptive", "sample-sd")


def load_config_file(path: str) -> list[str]:
    """Read a key=value file as `--key=value` argv tokens; keys are the long flag names.

    A store-true flag becomes a bare `--flag` when its value is 1, true, yes
    or on, and is left off otherwise. Every value is then checked by the
    same argparse parser as the flags.
    """
    tokens = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key == "config":
            raise ValueError(f"line {lineno}: a config file cannot name another "
                             f"(config = {value})")
        if key not in _SWITCHES:
            tokens.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(f"--{key}")
    return tokens


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Splice the --config file's tokens in after the subcommand, so later flags win."""
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    try:
        return argv[:1] + load_config_file(path) + argv[1:]
    except (OSError, ValueError) as exc:
        parser.error(f"config file {path}: {exc}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, as are the subparsers it makes, that reads a token
    like a negative number as a value, not a flag, also with an exponent.
    argparse's own pattern takes -1 and -.5 but not -1e-9, which it would
    read as a flag, leaving `--accuracy -1e-9` without its value; so that
    `_number` refuses it as it does `--accuracy=-1e-9`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def _number(convert, minimum: int, even: bool = False):
    """argparse type: an int or a float, by `convert`, in [minimum, inf), so not
    nan, and even if asked; argparse puts the flag before the error, which names
    the value as given (exit 2). An int compares with inf without overflowing."""
    kind = "a finite number" if convert is float else "an even integer" if even else "an integer"

    def parse(text: str):
        value = convert(text)
        if not minimum <= value < math.inf or (even and value % 2):
            raise argparse.ArgumentTypeError(f"{text} is not {kind} >= {minimum}")
        return value

    parse.__name__ = convert.__name__  # a non-number reads "invalid int value" (or float)
    return parse


def _names(text: str) -> list[str]:
    """argparse type: comma-separated names, none empty or repeated; the error
    names the flag and the value as `_number`'s does."""
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if not name or names.count(name) > 1:
            raise argparse.ArgumentTypeError(
                f"{text!r} " + (f"names {name} twice" if name else "has an empty name"))
    return names


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand shares; the run's own defaults are the library's."""
    parser.add_argument("--runs", type=_number(int, 1), default=30)
    parser.add_argument("--seed", type=_number(int, 0), default=1,
                        help="base seed, >= 0; run i uses seed+i")
    parser.add_argument("--colony", type=_number(int, 8, even=True),
                        default=VariantConfig.initial_colony,
                        help="colony size (bees); food sources are half of this")
    parser.add_argument("--limit", type=_number(int, 1), default=VariantConfig.limit,
                        help="abandonment limit")
    parser.add_argument("--c-factor", type=_number(float, 0), default=VariantConfig.c_factor)
    parser.add_argument("--max-nfe", type=_number(int, 1), default=TerminationRule.max_nfe)
    parser.add_argument("--accuracy", type=_number(float, 0), default=TerminationRule.accuracy)
    parser.add_argument("--no-adaptive", action="store_true",
                        help="disable adaptive colony sizing for the sac variants")
    parser.add_argument("--sample-sd", action="store_true",
                        help="use the n-1 standard deviation instead of population")
    parser.add_argument("--jobs", type=_number(int, 1), default=1)
    parser.add_argument("--output-dir", default="beehive_out")
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both")
    parser.add_argument("--config", help="key=value config file; flags win on conflict")
    parser.add_argument("--atoms", type=_number(int, 2), default=None,
                        help="atom count for lennard_jones")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beehive", allow_abbrev=False,
                     description="Bee colony optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one problem with one variant", allow_abbrev=False)
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--dim", type=_number(int, 1), help="benchmark dimension")
    p_run.add_argument("--variant", choices=STRATEGIES, default="basic")
    p_run.add_argument("--traces", action="store_true",
                       help="write per-run trace CSVs and the median convergence series")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare variants over a problem list",
                           allow_abbrev=False)
    p_cmp.add_argument("--problems", type=_names, required=True,
                       help="comma-separated problem names")
    p_cmp.add_argument("--dim", type=_number(int, 1), help="benchmark dimension")
    p_cmp.add_argument("--variants", type=_names, default="basic,sac,sac1,sac2")
    p_cmp.add_argument("--baseline", default="sac2")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="run a full suite with standard settings",
                             allow_abbrev=False)
    p_bench.add_argument("suite", choices=("benchmarks", "engineering", "all"))
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return int(exc.code or 0)
    if "BEEHIVE_SEED" in os.environ:
        value = os.environ["BEEHIVE_SEED"]
        try:
            args.seed = _number(int, 0)(value)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"error: BEEHIVE_SEED must be an integer >= 0, not {value!r}",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
