"""Command-line interface: ``python -m repro <command>``.

Gives the library a batch-system-operator surface:

========== =========================================================
command     action
========== =========================================================
schedule    run an algorithm on an instance JSON file
optimal     exact branch-and-bound on an instance JSON file
bounds      print the Figure 4 bound values at given α
figure      regenerate a paper figure (1-4) in the terminal
generate    write a random workload instance JSON
gantt       render a schedule JSON as an ASCII Gantt chart
simulate    online simulation of an instance with a policy
swf         convert an SWF trace to instance JSON
replay      stream an SWF trace through the rolling-horizon engine
info        characterize a workload instance
run         execute an experiment-spec JSON through the grid Runner
bench       run registered benchmarks (benchmarks/suite.py)
list        list registered algorithms/workloads/policies/metrics
========== =========================================================

Every command reads/writes the JSON formats of
:mod:`repro.core.serialize`, so outputs chain into inputs; ``run``
consumes ``repro-spec/1`` documents (see :mod:`repro.run`) and appends
result rows to a resumable JSONL store.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .errors import ReproError

# Every handler imports what it uses: a subcommand (``repro serve`` above
# all) pays only for its own modules, not for the whole library.


def _cmd_schedule(args) -> int:
    from .algorithms import get_scheduler
    from .core import lower_bound, summarize
    from .core.serialize import dumps_schedule, load_instance, save_schedule

    instance = load_instance(args.instance)
    scheduler = get_scheduler(args.algorithm)
    schedule = scheduler.schedule(instance)
    schedule.verify()
    metrics = summarize(schedule)
    print(
        f"{scheduler.name}: Cmax={metrics.makespan}  "
        f"LB={lower_bound(instance)}  util={metrics.utilization:.3f}"
    )
    if args.output:
        save_schedule(schedule, args.output)
        print(f"schedule written to {args.output}")
    else:
        print(dumps_schedule(schedule))
    return 0


def _cmd_optimal(args) -> int:
    from .algorithms import branch_and_bound
    from .core.serialize import load_instance, save_schedule

    instance = load_instance(args.instance)
    result = branch_and_bound(instance, node_limit=args.node_limit)
    result.schedule.verify()
    print(
        f"optimal Cmax={result.makespan}  nodes={result.nodes}  "
        f"proven={result.proven_optimal}"
    )
    if args.output:
        save_schedule(result.schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def _parse_alpha(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(token)


def _cmd_bounds(args) -> int:
    from .analysis import format_table
    from .theory import lower_bound_b1, lower_bound_b2, upper_bound

    rows = []
    for token in args.alpha:
        a = _parse_alpha(token)
        rows.append(
            {
                "alpha": token,
                "upper 2/a": str(upper_bound(a)),
                "B1": str(lower_bound_b1(a)),
                "B2": str(lower_bound_b2(a)),
            }
        )
    print(format_table(rows, title="alpha-RESASCHEDULING bounds"))
    return 0


def _cmd_figure(args) -> int:
    from .viz import render_gantt

    if args.empirical and args.number != 4:
        print("error: --empirical applies to figure 4 only", file=sys.stderr)
        return 2
    if args.number == 1:
        from .algorithms import optimal_makespan_m1
        from .theory import (
            random_yes_3partition,
            reduction_yes_makespan,
            three_partition_reduction,
        )

        vals, bound = random_yes_3partition(args.k, 60, seed=args.seed)
        inst = three_partition_reduction(vals, bound, rho=2)
        target = reduction_yes_makespan(args.k, bound)
        achieved = optimal_makespan_m1(inst)
        print(f"Figure 1: 3-PARTITION reduction, k={args.k}, B={bound}")
        print(f"target makespan k(B+1)-1 = {target}; solved = {achieved}")
        print("yes-instance scheduled into the gaps exactly" if
              achieved == target else "MISMATCH")
    elif args.number == 2:
        from .algorithms import ListScheduler
        from .core import ReservationInstance
        from .workloads import nonincreasing_staircase, uniform_instance

        jobs = uniform_instance(6, 8, p_range=(1, 6), q_range=(1, 4),
                                seed=args.seed).jobs
        stairs = nonincreasing_staircase(8, 3, horizon=10, seed=args.seed)
        inst = ReservationInstance(m=8, jobs=jobs, reservations=stairs)
        schedule = ListScheduler().schedule(inst)
        print("Figure 2: non-increasing reservations, LSRC schedule")
        print(render_gantt(schedule, width=70))
    elif args.number == 3:
        from .algorithms import list_schedule
        from .theory import proposition2_instance

        fam = proposition2_instance(args.k if args.k >= 3 else 6)
        optimal = fam.optimal_schedule()
        bad = list_schedule(fam.instance, order=fam.bad_order)
        print(f"Figure 3: k={fam.k}, alpha=2/{fam.k}, m={fam.instance.m}")
        print(render_gantt(optimal, width=70, max_rows=10, legend=False))
        print()
        print(render_gantt(bad, width=70, max_rows=10, legend=False))
        print(f"\nC*={optimal.makespan}  LSRC(bad)={bad.makespan}  "
              f"ratio={Fraction(bad.makespan, optimal.makespan)}")
    elif args.number == 4:
        from .analysis import ascii_plot
        from .theory import default_alpha_grid, figure4_series

        rows = figure4_series(default_alpha_grid(160, lo=0.2))
        series = {
            "upper 2/a": [(r.alpha, r.upper) for r in rows],
            "B1": [(r.alpha, r.b1) for r in rows],
            "B2": [(r.alpha, r.b2) for r in rows],
        }
        if args.empirical:
            # measured companion grid, executed through the experiment
            # layer: mean LSRC ratio against the certified lower bound
            from .run import Runner, mean_metric_series, paper_grid_spec

            spec = paper_grid_spec(
                alphas=[0.25, 0.4, 0.5, 0.65, 0.8],
                algorithms=["lsrc"],
                seeds=range(3),
            )
            result = Runner(jobs=args.jobs).run(spec)
            series["LSRC measured"] = mean_metric_series(
                result, "ratio_lb", algorithm="lsrc"
            )
        print(
            ascii_plot(
                series,
                width=72, height=20, y_max=10.0, y_min=0.0,
                x_label="alpha", y_label="guarantee",
            )
        )
    else:
        print(f"unknown figure {args.number}; the paper has figures 1-4",
              file=sys.stderr)
        return 2
    return 0


def _cmd_generate(args) -> int:
    from .core import ReservationInstance
    from .core.serialize import dumps_instance, save_instance
    from .workloads import (
        alpha_constrained_instance,
        feitelson_instance,
        random_alpha_reservations,
        uniform_instance,
    )

    reservations = ()
    if args.alpha is not None:
        # the alpha restriction constrains BOTH sides (Section 4.2):
        # job widths <= alpha*m and reservations <= (1-alpha)*m
        alpha = _parse_alpha(args.alpha)
        rigid = alpha_constrained_instance(
            args.jobs, args.machines, alpha, seed=args.seed
        )
        reservations = random_alpha_reservations(
            args.machines, alpha, horizon=args.horizon,
            count=args.reservations, seed=args.seed + 1,
        )
    elif args.model == "uniform":
        rigid = uniform_instance(args.jobs, args.machines, seed=args.seed)
    else:
        rigid = feitelson_instance(args.jobs, args.machines, seed=args.seed)
    instance = ReservationInstance(
        m=args.machines, jobs=rigid.jobs, reservations=reservations,
        name=f"{args.model}(n={args.jobs},m={args.machines})",
    )
    if args.output:
        save_instance(instance, args.output)
        print(f"instance written to {args.output}")
    else:
        print(dumps_instance(instance))
    return 0


def _cmd_gantt(args) -> int:
    from .core.serialize import load_schedule
    from .viz import render_gantt, save_svg

    schedule = load_schedule(args.schedule)
    print(render_gantt(schedule, width=args.width))
    if args.svg:
        save_svg(schedule, args.svg)
        print(f"SVG written to {args.svg}")
    return 0


def _cmd_simulate(args) -> int:
    from .core import summarize
    from .core.serialize import load_instance, save_schedule
    from .simulation import simulate

    instance = load_instance(args.instance)
    result = simulate(instance, args.policy)
    result.schedule.verify()
    metrics = summarize(result.schedule)
    print(
        f"online {args.policy}: Cmax={metrics.makespan:.6g}  "
        f"mean_wait={metrics.mean_wait:.6g}  events={len(result.trace)}"
    )
    if args.output:
        save_schedule(result.schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_swf(args) -> int:
    from .core.serialize import dumps_instance, save_instance
    from .workloads import read_swf

    with open(args.trace) as fh:
        report = read_swf(
            fh, m=args.machines, max_jobs=args.max_jobs,
            use_release=not args.offline,
        )
    print(
        f"parsed {report.instance.n} jobs on m={report.instance.m} "
        f"({len(report.skipped)} skipped)"
    )
    instance = report.instance.to_reservation_instance()
    if args.output:
        save_instance(instance, args.output)
        print(f"instance written to {args.output}")
    else:
        print(dumps_instance(instance))
    return 0


def _cmd_replay(args) -> int:
    from .errors import TraceFormatError

    # a source that does not parse (unknown synth profile, malformed
    # SWF) is a usage error on every path, plain, multi-policy or
    # journaled
    try:
        return _replay(args)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _replay(args) -> int:
    from .simulation.replay import (
        ReplayEngine,
        open_replay_source,
        replay_policies,
    )

    policies = [p for p in args.policy.split(",") if p]
    if not policies:
        print("error: no policy given", file=sys.stderr)
        return 2
    # Raw spec string; the engines parse and validate it (workers get
    # the string, not the model, so spec errors surface identically
    # serial and sharded).  Absent flag means absent kwarg: the certain
    # world stays byte-for-byte the pre-uncertainty code path.
    uncertain_kwargs = (
        {"uncertainty": args.uncertainty} if args.uncertainty else {}
    )
    if args.uncertainty:
        from .workloads.uncertainty import parse_uncertainty

        try:
            parse_uncertainty(args.uncertainty)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.resume and not args.journal:
        print("error: --resume requires --journal DIR", file=sys.stderr)
        return 2
    if args.snapshot_interval is not None and not args.journal:
        print(
            "error: --snapshot-interval requires --journal DIR "
            "(snapshots live in the journal)",
            file=sys.stderr,
        )
        return 2
    if args.journal:
        if len(policies) > 1 or args.jobs > 1:
            print(
                "error: --journal covers a single-policy, single-process "
                "replay (drop --jobs / extra policies)",
                file=sys.stderr,
            )
            return 2
        from .durability import DEFAULT_SNAPSHOT_INTERVAL, replay_journaled
        from .errors import JournalError

        interval = (args.snapshot_interval
                    if args.snapshot_interval is not None
                    else DEFAULT_SNAPSHOT_INTERVAL)
        try:
            result = replay_journaled(
                args.trace, args.journal, policy=policies[0],
                m=args.machines, max_jobs=args.max_jobs,
                seed=args.seed, store=args.out, resume=args.resume,
                snapshot_interval=interval, window=args.window,
                **uncertain_kwargs,
            )
        except JournalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        t = result.totals
        print(
            f"replayed {t['n_jobs']} jobs with {policies[0]} on "
            f"m={result.m}: Cmax={t['makespan']}  "
            f"util={t['utilization']:.3f}  "
            f"mean_wait={t['mean_wait']:.6g}  ratio_lb={t['ratio_lb']:.4f}"
            f"  [journal: {args.journal}]"
        )
        if args.out:
            print(
                f"{t['windows']} window rows + totals written to {args.out}"
            )
        return 0

    if len(policies) > 1:
        # multi-policy mode: K independent replays of the same source,
        # sharded onto worker processes with --jobs; merged JSONL rows
        # are byte-identical to a serial run
        multi = replay_policies(
            args.trace, policies, m=args.machines, jobs=args.jobs,
            store=args.out, max_jobs=args.max_jobs, seed=args.seed,
            window=args.window, **uncertain_kwargs,
        )
        for policy in policies:
            t = multi.results[policy].totals
            print(
                f"{policy:>14}: {t['n_jobs']} jobs on m={multi.m}  "
                f"Cmax={t['makespan']}  util={t['utilization']:.3f}  "
                f"mean_wait={t['mean_wait']:.6g}  "
                f"ratio_lb={t['ratio_lb']:.4f}  "
                f"({t['n_jobs'] / t['elapsed_seconds']:,.0f} jobs/s)"
            )
        mode = (f"{min(args.jobs, len(policies))} worker processes"
                if args.jobs > 1 else "serial")
        print(f"{len(policies)} policies replayed ({mode})")
        if args.out:
            print(f"{len(multi.rows)} merged rows written to {args.out}")
        return 0

    # a single policy replays serially whatever --jobs says: one trace
    # is one sequential event loop
    arrivals, machine, stream = open_replay_source(
        args.trace, m=args.machines, max_jobs=args.max_jobs, seed=args.seed
    )
    engine = ReplayEngine(
        machine, policy=policies[0], window=args.window, store=args.out,
        **uncertain_kwargs,
    )
    result = engine.run(arrivals, stream=stream)
    t = result.totals
    print(
        f"replayed {t['n_jobs']} jobs with {policies[0]} on m={result.m}: "
        f"Cmax={t['makespan']}  util={t['utilization']:.3f}  "
        f"mean_wait={t['mean_wait']:.6g}  ratio_lb={t['ratio_lb']:.4f}"
    )
    print(
        f"bounded memory: peak queue {t['peak_queue_length']}, "
        f"peak profile segments {t['peak_profile_segments']} "
        f"({t['elapsed_seconds']:.2f}s, "
        f"{t['n_jobs'] / t['elapsed_seconds']:,.0f} jobs/s)"
    )
    if args.out:
        print(
            f"{t['windows']} window rows + totals written to {args.out}"
        )
    return 0


def _cmd_serve(args) -> int:
    from .serve.daemon import run_serve

    if args.resume:
        conflicts = [
            flag for flag, value in (
                ("-m/--machines", args.machines),
                ("-p/--policy", args.policy),
                ("--window", args.window),
                ("--snapshot-interval", args.snapshot_interval),
                ("--uncertainty", args.uncertainty),
            ) if value is not None
        ]
        if conflicts:
            print(
                f"error: --resume takes its configuration from the "
                f"journal header; drop {', '.join(conflicts)}",
                file=sys.stderr,
            )
            return 2
    elif args.machines is None:
        print(
            "error: starting a fresh service requires -m/--machines "
            "(or --resume an existing journal)",
            file=sys.stderr,
        )
        return 2
    from .serve.daemon import DEFAULT_OP_SNAPSHOT_INTERVAL

    return run_serve(
        args.journal,
        resume=args.resume,
        m=args.machines,
        policy=args.policy if args.policy is not None else "easy",
        window=args.window if args.window is not None else 0,
        uncertainty=args.uncertainty,
        snapshot_interval=(
            args.snapshot_interval
            if args.snapshot_interval is not None
            else DEFAULT_OP_SNAPSHOT_INTERVAL
        ),
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        fsync=args.fsync,
    )


def _cmd_info(args) -> int:
    from .analysis import format_table
    from .core import lower_bound
    from .core.serialize import load_instance
    from .workloads.characterize import characterize

    instance = load_instance(args.instance)
    profile = characterize(instance)
    print(format_table([profile.as_dict()], title=f"workload {args.instance}"))
    print(f"lower bound on C*max: {lower_bound(instance)}")
    print(f"alpha window: [{instance.min_alpha}, {instance.max_alpha}]")
    return 0


def _cmd_run(args) -> int:
    from .analysis import format_table
    from .core.serialize import load_spec
    from .run import Runner, summary_rows

    spec = load_spec(args.spec)
    store = args.out
    if store is None:
        store = os.path.splitext(args.spec)[0] + ".results.jsonl"

    def progress(done, total, row):
        if not args.quiet:
            print(f"\r  {done}/{total} points", end="", flush=True)

    runner = Runner(jobs=args.jobs, store=store, progress=progress)
    result = runner.run(spec, resume=not args.fresh)
    if not args.quiet and result.computed:
        print()
    print(
        f"{spec.name}: {len(result.rows)} rows "
        f"({result.computed} computed, {result.skipped} resumed) "
        f"in {result.elapsed_seconds:.2f}s with jobs={args.jobs}"
    )
    print(f"rows stored in {store}")
    table = summary_rows(result, metric=args.summary_metric)
    if table:
        print(format_table(table, title=f"experiment {spec.name}"))
    return 0


def _find_bench_suite():
    """Locate ``benchmarks/suite.py`` (source checkouts only).

    Checks ``$REPRO_BENCHMARKS``, the repo root relative to this file,
    then the working directory — the suite ships with the repository,
    not inside the installed package.
    """
    import pathlib

    candidates = []
    env = os.environ.get("REPRO_BENCHMARKS")
    if env:
        candidates.append(pathlib.Path(env))
    candidates.append(pathlib.Path(__file__).resolve().parents[2] / "benchmarks")
    candidates.append(pathlib.Path.cwd() / "benchmarks")
    for directory in candidates:
        if (directory / "suite.py").is_file():
            return directory / "suite.py"
    return None


def _cmd_bench(args) -> int:
    import importlib.util

    suite_path = _find_bench_suite()
    if suite_path is None:
        print(
            "error: benchmarks/suite.py not found — 'repro bench' needs a "
            "source checkout (or set REPRO_BENCHMARKS to the benchmarks "
            "directory)",
            file=sys.stderr,
        )
        return 1
    module_spec = importlib.util.spec_from_file_location(
        "repro_bench_suite", suite_path
    )
    suite = importlib.util.module_from_spec(module_spec)
    # dataclasses resolves string annotations through sys.modules
    sys.modules[module_spec.name] = suite
    module_spec.loader.exec_module(suite)
    argv: List[str] = list(args.names)
    if args.quick:
        argv.append("--quick")
    if args.check:
        argv.append("--check")
    if args.profile:
        argv.append("--profile")
    if args.list_benchmarks:
        argv.append("--list")
    if args.out:
        argv += ["--out", args.out]
    argv += ["--repeats", str(args.repeats)]
    return suite.main(argv)


def _algorithm_names() -> List[str]:
    from .algorithms import available_schedulers

    return available_schedulers()


def _workload_names() -> List[str]:
    from .workloads import available_workloads

    return available_workloads()


def _policy_names() -> List[str]:
    from .simulation import available_policies

    return available_policies()


def _metric_names() -> List[str]:
    from .core import available_metrics

    return available_metrics()


def _lint_rule_names() -> List[str]:
    from .devtools.lint import RULES

    return [f"{rule.code} ({rule.name}): {rule.summary}" for rule in RULES]


def _failpoint_names() -> List[str]:
    from .devtools import failpoints

    return failpoints.describe()


def _uncertainty_names() -> List[str]:
    from .workloads.uncertainty import available_uncertainty_models

    return available_uncertainty_models()


#: ``repro list --kind`` dispatch; the argparse choices derive from this.
_LIST_LOADERS = {
    "algorithms": _algorithm_names,
    "workloads": _workload_names,
    "policies": _policy_names,
    "metrics": _metric_names,
    "lint-rules": _lint_rule_names,
    "failpoints": _failpoint_names,
    "uncertainty-models": _uncertainty_names,
}

_LIST_KINDS = tuple(_LIST_LOADERS)


def _list_names(kind: str) -> List[str]:
    return _LIST_LOADERS[kind]()


def _cmd_list(args) -> int:
    if args.kind == "all":
        for kind in _LIST_KINDS:
            print(f"{kind}:")
            for name in _list_names(kind):
                print(f"  {name}")
        return 0
    for name in _list_names(args.kind):
        print(name)
    return 0


def _cmd_lint(args) -> int:
    from .devtools.lint.cli import run as run_lint_cli

    return run_lint_cli(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scheduling rigid parallel jobs with reservations "
            "(IPDPS'07 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="run an algorithm on an instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("-a", "--algorithm", default="lsrc")
    p.add_argument("-o", "--output", help="write schedule JSON here")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("optimal", help="exact branch-and-bound")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.add_argument("--node-limit", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("bounds", help="Figure 4 bound values")
    p.add_argument("alpha", nargs="+", help="e.g. 0.5 or 2/3")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("figure", help="regenerate a paper figure (1-4)")
    p.add_argument("number", type=int)
    p.add_argument("--k", type=int, default=3, help="family parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--empirical", action="store_true",
                   help="overlay measured ratios (figure 4) via the Runner")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for --empirical")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("generate", help="generate a workload instance")
    p.add_argument("-n", "--jobs", type=int, default=20)
    p.add_argument("-m", "--machines", type=int, default=16)
    p.add_argument("--model", choices=["uniform", "feitelson"],
                   default="uniform")
    p.add_argument("--alpha", help="add alpha-budgeted reservations")
    p.add_argument("--reservations", type=int, default=4)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("gantt", help="render a schedule JSON")
    p.add_argument("schedule")
    p.add_argument("--width", type=int, default=78)
    p.add_argument("--svg", help="also write an SVG here")
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("simulate", help="online simulation")
    p.add_argument("instance")
    p.add_argument(
        "-p", "--policy", default="greedy",
        help="registered policy name (see 'repro list --kind policies')",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("swf", help="convert an SWF trace")
    p.add_argument("trace")
    p.add_argument("-m", "--machines", type=int)
    p.add_argument("--max-jobs", type=int)
    p.add_argument("--offline", action="store_true",
                   help="drop submit times")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_swf)

    p = sub.add_parser(
        "replay",
        help="stream an SWF trace (or synth:<profile>[:<n>]) through the "
             "rolling-horizon replay engine",
    )
    p.add_argument("trace",
                   help="trace path (.swf or .swf.gz), or synth:<profile>"
                        "[:<n>] for the deterministic scenario pack")
    p.add_argument(
        "-p", "--policy", default="easy",
        help="registered policy name, or a comma-separated list to "
             "replay several policies (see 'repro list --kind policies')",
    )
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes for a multi-policy replay, one "
                        "policy per worker (output is byte-identical to "
                        "serial); a single-policy replay always runs "
                        "serially")
    p.add_argument("-m", "--machines", type=int,
                   help="machine size (default: the trace's MaxProcs "
                        "header; 256 for synthetic profiles)")
    p.add_argument("--window", type=int, default=10_000,
                   help="jobs per metrics window (0 disables windows)")
    p.add_argument("--max-jobs", type=int,
                   help="stop after this many jobs")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for synth:<profile> traces")
    p.add_argument("--uncertainty", metavar="SPEC",
                   help="runtime-uncertainty model model[:key=value]*, "
                        "e.g. lognormal:sigma=0.5:overrun=grace — the "
                        "policy plans with estimated runtimes while jobs "
                        "complete at drawn actuals, with stochastic "
                        "failure/requeue (see 'repro list --kind "
                        "uncertainty-models')")
    p.add_argument("-o", "--out",
                   help="JSONL store for window rows + totals")
    p.add_argument("--journal", metavar="DIR",
                   help="durable journal directory: window rows and "
                        "periodic checkpoints are logged so a killed run "
                        "resumes byte-identically with --resume "
                        "(single policy, --jobs 1)")
    p.add_argument("--resume", action="store_true",
                   help="resume a journaled run from its latest "
                        "committed snapshot (requires --journal)")
    p.add_argument("--snapshot-interval", type=int, default=None,
                   metavar="N",
                   help="jobs replayed between journal snapshots "
                        "(default 100000)")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "serve",
        help="scheduler-as-a-service daemon: a live SchedulerCore "
             "behind a local HTTP/JSON API, event-sourced through a "
             "journal (repro-serve/1; kill-anywhere recoverable)",
    )
    p.add_argument("journal", metavar="DIR",
                   help="journal directory — the daemon's durable truth "
                        "(fresh for a new service, existing with --resume)")
    p.add_argument("--resume", action="store_true",
                   help="recover a killed service from its journal "
                        "(configuration comes from the journal header)")
    p.add_argument("-m", "--machines", type=int, default=None,
                   help="machine size (required unless --resume)")
    p.add_argument("-p", "--policy", default=None,
                   help="registered policy name (default: easy)")
    p.add_argument("--window", type=int, default=None,
                   help="jobs per metrics window (default 0: no windows)")
    p.add_argument("--snapshot-interval", type=int, default=None,
                   metavar="N",
                   help="accepted ops between journal snapshots "
                        "(default 256)")
    p.add_argument("--uncertainty", metavar="SPEC", default=None,
                   help="runtime-uncertainty model model[:key=value]* "
                        "applied to submitted jobs and reservations "
                        "(journaled; --resume restores it from the "
                        "header)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1 — local only)")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (default 0: pick an ephemeral port)")
    p.add_argument("--port-file", metavar="PATH",
                   help="write the bound port here once listening "
                        "(for scripts driving an ephemeral port)")
    p.add_argument("--fsync", action="store_true",
                   help="fsync every journal record (survive power loss, "
                        "not just kill -9)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("info", help="characterize a workload")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("run", help="execute an experiment spec JSON")
    p.add_argument("spec", help="spec JSON file (format repro-spec/1)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes (1 = in-process)")
    p.add_argument("-o", "--out",
                   help="JSONL row store (default: <spec>.results.jsonl)")
    p.add_argument("--fresh", action="store_true",
                   help="delete the store first instead of resuming")
    p.add_argument("--summary-metric", default="ratio_lb",
                   help="metric aggregated in the printed table")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="no progress counter")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "bench",
        help="run registered benchmarks (see benchmarks/suite.py)",
    )
    p.add_argument("names", nargs="*", metavar="name",
                   help="benchmark names; 'all' for everything, default "
                        "runs the JSON harness benchmarks")
    p.add_argument("--quick", action="store_true",
                   help="small sizes for CI smoke runs")
    p.add_argument("--check", action="store_true",
                   help="fail on >1.5x speedup regression vs checked-in "
                        "BENCH_*.json baselines")
    p.add_argument("--profile", action="store_true",
                   help="wrap the benched scenario in cProfile and print "
                        "the top-20 cumulative functions")
    p.add_argument("--repeats", type=int, default=1,
                   help="best-of-N timing")
    p.add_argument("--out", help="directory for result JSONs")
    p.add_argument("--list", dest="list_benchmarks", action="store_true",
                   help="list registered benchmarks and exit")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "list",
        help="list registered algorithms, workloads, policies, metrics",
    )
    p.add_argument(
        "--kind", choices=_LIST_KINDS + ("all",), default="algorithms",
        help="which registry to list (default: algorithms)",
    )
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser(
        "lint",
        help="AST invariant checks: determinism, int-grid exactness, "
             "backend-protocol drift (rules: repro list --kind lint-rules)",
    )
    from .devtools.lint.cli import build_parser as _build_lint_parser

    _build_lint_parser(p)
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
