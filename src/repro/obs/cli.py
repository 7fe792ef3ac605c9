"""The observability command line: ``xnf obs {report,flame,diff,
history,regress}``.

Reachable two ways (identical behaviour)::

    python -m repro.obs  report TRACE [--by-task]  # profile tree
    python -m repro.obs  flame  TRACE [-o FILE]    # folded stacks
    python -m repro.obs  diff   A B [--tolerance PCT]
    python -m repro.obs  history LEDGER [--task ID] [--limit N]
    python -m repro.obs  regress LEDGER [--baseline FILE] ...

    xnf obs report / flame / diff / history / regress ...

``report`` folds a ``--trace FILE`` JSON-lines log into the
deterministic profile of :mod:`repro.obs.profile` (``--by-task`` adds
the per-manifest-task rollup for stitched batch traces); ``flame``
emits folded stacks for flamegraph tools; ``diff`` compares two traces
or two ``--stats``-style snapshot JSON files under the benchmark
comparator's conventions.  ``history`` and ``regress`` read the
``--ledger FILE`` batch run ledger (:mod:`repro.obs.ledger`): history
summarises past runs, regress gates the latest run against baselines.

Every positional file argument accepts ``-`` for standard input, so
traces and ledgers pipe straight through (``xnf ... --trace - | xnf
obs report -``).

Exit codes follow the repository-wide contract: 0 success / no
regression, 1 regression beyond tolerance (``diff`` / ``regress``), 2
usage or file error (unreadable/malformed input — a message, never a
traceback).
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import profile as _profile
    profile = _profile.load_profile(args.trace_path)
    print(_profile.render_report(
        profile, counters=not args.no_counters,
        by_task=args.by_task), end="")
    return EXIT_OK


def cmd_flame(args: argparse.Namespace) -> int:
    from repro.obs import profile as _profile
    profile = _profile.load_profile(args.trace_path)
    folded = _profile.folded_stacks(profile)
    if args.out and args.out != "-":
        with open(args.out, "w") as stream:
            stream.write(folded)
        print(f"wrote {args.out} ({len(profile.by_stack)} stack(s))",
              file=sys.stderr)
    else:
        print(folded, end="")
    return EXIT_OK


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs import profile as _profile
    report, code = _profile.diff(args.baseline, args.current,
                                 tolerance=args.tolerance / 100.0)
    print(report, end="")
    return code


def cmd_history(args: argparse.Namespace) -> int:
    from repro.obs import ledger as _ledger
    records = _ledger.read_ledger(args.ledger_path)
    print(_ledger.render_history(records, task=args.task,
                                 limit=args.limit), end="")
    return EXIT_OK


def cmd_regress(args: argparse.Namespace) -> int:
    from repro.bench.compare import gate, render_findings
    from repro.obs import ledger as _ledger
    records = _ledger.read_ledger(args.ledger_path)
    baseline = (_ledger.read_ledger(args.baseline)
                if args.baseline else None)
    tolerance = args.tolerance / 100.0
    findings = _ledger.regress(
        records, baseline_records=baseline, tolerance=tolerance,
        min_wall_ms=args.min_wall_ms, absolute=args.absolute)
    print(render_findings(findings, tolerance=tolerance), end="")
    return gate(findings)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the obs subcommands to ``parser`` (used both by
    ``python -m repro.obs`` and the main CLI's ``obs`` subcommand)."""
    sub = parser.add_subparsers(dest="obs_command", required=True)

    # dest is "trace_path", not "trace": in the main CLI the global
    # --trace FILE option owns the "trace" dest, and colliding with it
    # would make `xnf obs report T` truncate T before reading it.
    rep = sub.add_parser(
        "report", help="fold a --trace log into a profile report")
    rep.add_argument("trace_path", metavar="TRACE",
                     help="JSON-lines span trace file, or - for stdin")
    rep.add_argument("--no-counters", action="store_true",
                     help="omit the self-attributed counter-delta "
                     "section")
    rep.add_argument("--by-task", action="store_true",
                     help="add the per-manifest-task rollup "
                     "(stitched batch traces)")
    rep.set_defaults(obs_func=cmd_report)

    fla = sub.add_parser(
        "flame", help="emit folded stacks for flamegraph tools")
    fla.add_argument("trace_path", metavar="TRACE",
                     help="JSON-lines span trace file, or - for stdin")
    fla.add_argument("-o", "--out", metavar="FILE",
                     help="write to FILE instead of stdout")
    fla.set_defaults(obs_func=cmd_flame)

    dif = sub.add_parser(
        "diff", help="gate two traces (or stats snapshots) on "
        "counter deltas")
    dif.add_argument("baseline", help="baseline trace or snapshot "
                     "JSON, or - for stdin")
    dif.add_argument("current", help="current trace or snapshot "
                     "JSON, or - for stdin")
    dif.add_argument("--tolerance", type=float, metavar="PCT",
                     default=5.0,
                     help="allowed counter growth in percent "
                     "(default: %(default)s)")
    dif.set_defaults(obs_func=cmd_diff)

    his = sub.add_parser(
        "history", help="summarise a --ledger run history")
    his.add_argument("ledger_path", metavar="LEDGER",
                     help="JSON-lines run ledger file, or - for stdin")
    his.add_argument("--task", metavar="ID",
                     help="show every run of one task instead of "
                     "the per-run summary")
    his.add_argument("--limit", type=int, metavar="N",
                     help="only the most recent N runs")
    his.set_defaults(obs_func=cmd_history)

    reg = sub.add_parser(
        "regress", help="gate the latest ledger run against "
        "baseline runs")
    reg.add_argument("ledger_path", metavar="LEDGER",
                     help="JSON-lines run ledger file, or - for stdin")
    reg.add_argument("--baseline", metavar="FILE",
                     help="compare against this ledger's runs "
                     "instead of earlier runs in LEDGER")
    reg.add_argument("--tolerance", type=float, metavar="PCT",
                     default=5.0,
                     help="allowed per-task wall-time growth in "
                     "percent after scale normalisation "
                     "(default: %(default)s)")
    reg.add_argument("--min-wall-ms", type=float, metavar="MS",
                     default=1.0,
                     help="ignore timing movement on tasks faster "
                     "than MS (default: %(default)s)")
    reg.add_argument("--absolute", action="store_true",
                     help="compare raw wall times (skip the "
                     "median-ratio machine-speed normalisation)")
    reg.set_defaults(obs_func=cmd_regress)


def dispatch(args: argparse.Namespace) -> int:
    """Run the selected obs subcommand (shared with the main CLI)."""
    from repro.obs.ledger import LedgerError
    from repro.obs.profile import TraceError
    try:
        return args.obs_func(args)
    except (TraceError, LedgerError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="profiling observatory: report, flame, diff, "
        "history, regress")
    configure_parser(parser)
    args = parser.parse_args(argv)
    return dispatch(args)
