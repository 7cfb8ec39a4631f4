"""Command-line experiment driver: run, compare, and bench subcommands.

Artifacts: stats CSV (`problem,variant,dim,runs,best,mean,sd,mean_nfe`),
per-run trace CSVs (`nfe,best`), a comparison CSV with per-problem NFE and
acceleration-rate columns,
and JSON mirrors of each (JSON keeps full precision; CSV statistics use the
3-significant-digit, zero-below-threshold table style).

Exit codes: 0 success, 2 usage/configuration error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
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
    run_batch,
)
from .problems import BENCHMARK_DIMENSIONS, BENCHMARK_NAMES, ENGINEERING_NAMES, make_problem

STATS_HEADER = ["problem", "variant", "dim", "runs", "best", "mean", "sd", "mean_nfe"]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_stats_csv(path: Path, stats: list[ExperimentStats]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER)
        for s in stats:
            writer.writerow(
                [s.problem, s.variant, s.dim, s.runs,
                 format_stat(s.best), format_stat(s.mean), format_stat(s.sd),
                 f"{s.mean_nfe:g}"]
            )


def write_stats_json(path: Path, stats: list[ExperimentStats]) -> None:
    with open(path, "w") as fh:
        json.dump([vars(s) for s in stats], fh, indent=2)
        fh.write("\n")


def write_trace_csv(path: Path, result: RunResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nfe", "best"])
        for nfe, best in result.trace:
            writer.writerow([nfe, repr(best)])


def write_comparison_csv(path: Path, table: ComparisonTable) -> None:
    others = [v for v in table.variants if v != table.baseline]
    header = (["problem"] + [f"nfe_{v}" for v in table.variants]
              + [f"ar_{table.baseline}_vs_{v}" for v in others])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in table.problems:
            row = [p] + [f"{table.nfe[v][p]:g}" for v in table.variants]
            for v in others:
                row.append("---" if table.slower[v][p] else f"{table.ar[v][p]:.2f}")
            writer.writerow(row)
        writer.writerow(["average_ar"] + [""] * len(table.variants)
                        + [f"{table.average_ar[v]:.2f}" for v in others])


def write_comparison_json(path: Path, table: ComparisonTable) -> None:
    doc = {
        "baseline": table.baseline,
        "problems": list(table.problems),
        "variants": list(table.variants),
        "nfe": table.nfe,
        "acceleration_rate": table.ar,
        "baseline_slower": table.slower,
        "average_acceleration_rate": table.average_ar,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_convergence_csv(path: Path, grid, median) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nfe", "median_best"])
        for n, f in zip(grid, median):
            writer.writerow([f"{n:g}", repr(float(f))])


# ---------------------------------------------------------------------------
# Experiment plumbing
# ---------------------------------------------------------------------------

def _build_variant(args, strategy: str) -> VariantConfig:
    adaptive = False if getattr(args, "no_adaptive", False) else None
    return VariantConfig(
        strategy=strategy,
        limit=args.limit,
        c_factor=args.c_factor,
        adaptive_sizing=adaptive,
        initial_colony=args.colony,
    )


def _build_termination(args, problem) -> TerminationRule:
    # accuracy stop only applies where an exact optimum is known (benchmarks)
    return TerminationRule(
        max_nfe=args.max_nfe,
        accuracy=args.accuracy,
        target=problem.known_optimum,
    )


def _execute(problem, args, strategy: str):
    config = _build_variant(args, strategy)
    termination = _build_termination(args, problem)
    results = run_batch(problem, config, termination, args.runs, args.seed, args.jobs)
    stats = aggregate(problem, strategy, results, sample_sd=args.sample_sd)
    return results, stats


def _sweep(problems, strategies, args) -> list[ExperimentStats]:
    """Stats of every strategy on every problem, problem by problem."""
    return [_execute(problem, args, strategy)[1]
            for problem in problems for strategy in strategies]


def _check_size_flags(args, names) -> None:
    """A size flag must size at least one listed problem: --dim a benchmark,
    --atoms the Lennard-Jones cluster."""
    for flag, value, sized in (("--dim", getattr(args, "dim", None), BENCHMARK_NAMES),
                               ("--atoms", args.atoms, ("lennard_jones",))):
        if value is not None and not any(name in sized for name in names):
            raise ConfigurationError(
                f"{flag} {value} sizes none of the problems {', '.join(names)}; "
                f"it applies to {', '.join(sized)}")


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
    try:
        problem = make_problem(args.problem, dimension=args.dim, n_atoms=args.atoms)
    except ConfigurationError as exc:
        # echo the flags that chose the problem, so the error names the one at fault
        flags = [f"--problem {args.problem}"]
        flags += [f"{flag} {value}"
                  for flag, value in (("--dim", args.dim), ("--atoms", args.atoms))
                  if value is not None]
        raise ConfigurationError(f"{' '.join(flags)}: {exc}") from None
    results, stats = _execute(problem, args, args.variant)
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
          f"mean_nfe={stats.mean_nfe:g}")
    return 0


def cmd_compare(args) -> int:
    variants = _split(args.variants)
    if len(variants) < 2:
        raise ConfigurationError("compare needs at least 2 variants")
    if args.baseline not in variants:
        raise ConfigurationError(f"baseline {args.baseline!r} is not among the variants")
    names = _split(args.problems)
    # --dim sizes the benchmarks and --atoms the Lennard-Jones cluster
    problems = [make_problem(p, dimension=args.dim if p in BENCHMARK_NAMES else None,
                             n_atoms=args.atoms if p == "lennard_jones" else None)
                for p in names]
    _check_size_flags(args, names)
    all_stats = _sweep(problems, variants, args)
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
    _check_size_flags(args, names)
    all_stats: list[ExperimentStats] = []
    if args.suite in ("benchmarks", "all"):
        problems = [make_problem(name, dimension=dim)
                    for name, dims in BENCHMARK_DIMENSIONS.items() for dim in dims]
        all_stats += _sweep(problems, STRATEGIES, args)
    comparison = None
    if args.suite in ("engineering", "all"):
        problems = [make_problem(name, n_atoms=args.atoms if name == "lennard_jones" else None)
                    for name in ENGINEERING_NAMES]
        eng_stats = _sweep(problems, STRATEGIES, args)
        all_stats += eng_stats
        comparison = compare_table(
            [s for s in eng_stats if s.variant != "gbest"], "sac2"
        )
    _emit(out_dir, args.format, all_stats, comparison)
    print(f"wrote {len(all_stats)} stats records to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _split(csv_list: str) -> list[str]:
    return [item.strip() for item in csv_list.split(",") if item.strip()]


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1, help="base seed; run i uses seed+i")
    parser.add_argument("--colony", type=int, default=100,
                        help="colony size (bees); food sources are half of this")
    parser.add_argument("--limit", type=int, default=100, help="abandonment limit")
    parser.add_argument("--c-factor", type=float, default=1.5)
    parser.add_argument("--max-nfe", type=int, default=1_000_000)
    parser.add_argument("--accuracy", type=float, default=1e-20)
    parser.add_argument("--no-adaptive", action="store_true",
                        help="disable adaptive colony sizing for the sac variants")
    parser.add_argument("--sample-sd", action="store_true",
                        help="use the n-1 standard deviation instead of population")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output-dir", default="beehive_out")
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both")
    parser.add_argument("--config", help="key=value config file; flags win on conflict")
    parser.add_argument("--atoms", type=int, default=None,
                        help="atom count for lennard_jones")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beehive", allow_abbrev=False,
                                     description="Bee colony optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one problem with one variant", allow_abbrev=False)
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--dim", type=int, default=None)
    p_run.add_argument("--variant", choices=STRATEGIES, default="basic")
    p_run.add_argument("--traces", action="store_true",
                       help="write per-run trace CSVs and the median convergence series")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare variants over a problem list",
                           allow_abbrev=False)
    p_cmp.add_argument("--problems", required=True, help="comma-separated problem names")
    p_cmp.add_argument("--dim", type=int, default=None)
    p_cmp.add_argument("--variants", default="basic,sac,sac1,sac2")
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
            args.seed = int(value)
        except ValueError:
            print(f"error: BEEHIVE_SEED must be an integer, not {value!r}", file=sys.stderr)
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
