"""Command-line entry point: regenerate any paper artifact, run any spec.

Usage::

    ect-hub list
    ect-hub run table2 [--scale 1.0] [--seed 0] [--out results.json]
    ect-hub run-all [--scale 0.5] [--out results.json]

    ect-hub fleet --set fleet.n_hubs=200 [--set scheduler.name=greedy-renewable]
    ect-hub fleet --preset congested-city --set run.days=3
    ect-hub fleet --spec scenario.json --out results.json
    ect-hub fleet --preset congested-city --shards 8 --storage windowed
    ect-hub fleet --preset fleet-default --backend numba

    ect-hub train-fleet --set fleet.n_hubs=12 --set rl.train_episodes=100
    ect-hub train-fleet --preset congested-city --set rl.train_episodes=50

    ect-hub price --set fleet.n_hubs=100 [--methods none,evening,ours,or,ips,dr]
    ect-hub price --preset congested-city --set pricing.feeder_aware=true

    ect-hub presets [--show NAME] [--check]
    ect-hub sweep --preset fleet-default --param run.seed=0,1,2
    ect-hub sweep --spec sweep.json --out sweep.json

``fleet``, ``train-fleet`` and ``price`` each run one
:class:`~repro.spec.scenario.ScenarioSpec`: ``--spec FILE`` or ``--preset
NAME`` (default: the subcommand's own preset, ``fleet-default``,
``train-fleet`` or ``fleet-price``), then ``--scale``/``--seed`` as
``run.scale``/``run.seed``, then dotted ``--set key=value`` overrides.
``sweep`` expands a base spec × parameter grid and runs every job.
``--out PATH`` persists experiment ``data`` dicts as JSON so results can
be diffed across runs and PRs.

Observability: every subcommand takes ``-v/--verbose`` and ``-q/--quiet``
(the :mod:`repro.telemetry.log` threshold); the run-shaped subcommands
additionally take ``--telemetry`` (collect + print a RunTelemetry
summary; with ``--out`` the record also lands in a ``*.telemetry.json``
sidecar) and ``--trace-out PATH`` (export the nested phase trace and
full record as JSON).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ParallelError, ReproError
from .experiments import available_experiments, run_experiment
from .experiments.base import write_results_json
from .spec import (
    ScenarioSpec,
    SweepSpec,
    available_presets,
    get_preset,
    parse_assignments,
    parse_override_value,
    verify_roundtrips,
)
from .telemetry import (
    Telemetry,
    log,
    telemetry_sidecar_path,
    write_telemetry_json,
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="ect-hub",
        description="ECT-Hub reproduction: regenerate paper tables/figures.",
    )
    # Shared per-subcommand flags: verbosity on everything, telemetry on
    # the run-shaped subcommands (parents= so they sit after the
    # subcommand where users type them).
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity_g = verbosity.add_mutually_exclusive_group()
    verbosity_g.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="show debug-level log lines",
    )
    verbosity_g.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress info-level log lines (warnings/errors only)",
    )
    telemetry_args = argparse.ArgumentParser(add_help=False)
    telemetry_args.add_argument(
        "--telemetry",
        action="store_true",
        help="collect run telemetry (phase timings, engine counters) and "
        "print a summary; with --out, also write a *.telemetry.json sidecar",
    )
    telemetry_args.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the nested phase trace + RunTelemetry record as JSON "
        "(implies --telemetry)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list available experiment ids", parents=[verbosity]
    )

    run_p = sub.add_parser(
        "run",
        help="run one experiment",
        parents=[verbosity, telemetry_args],
    )
    run_p.add_argument("experiment", choices=available_experiments())
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep-style experiments "
        "(0 = all cores; default: serial)",
    )
    run_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    all_p = sub.add_parser(
        "run-all", help="run every experiment", parents=[verbosity]
    )
    all_p.add_argument("--scale", type=float, default=1.0)
    all_p.add_argument("--seed", type=int, default=0)
    all_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    fleet_p = sub.add_parser(
        "fleet",
        help="batch-simulate an N-hub fleet (vectorized engine)",
        parents=[verbosity, telemetry_args],
    )
    _add_scenario_args(fleet_p, "fleet-default", "grid.feeder_capacity_kw=400")
    fleet_p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the fleet feeder-aware and step shards in worker "
        "processes (byte-identical results; default: the spec's run.shards)",
    )
    fleet_p.add_argument(
        "--storage",
        choices=("dense", "windowed"),
        default=None,
        help="cost-book layout: 'windowed' folds slots into running "
        "aggregates so memory stops scaling with the horizon "
        "(sugar for --set run.storage=...)",
    )
    fleet_p.add_argument(
        "--backend",
        choices=("numpy", "numba"),
        default=None,
        help="battery-kernel backend of the engine step: 'numpy' "
        "(reference, byte-identical) or 'numba' (optional JIT; falls "
        "back to numpy with a warning when the package is missing) "
        "(sugar for --set run.backend=...)",
    )
    fleet_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    train_p = sub.add_parser(
        "train-fleet",
        help="train PPO on (n_hubs,) action batches over the fleet engine",
        parents=[verbosity, telemetry_args],
    )
    _add_scenario_args(train_p, "train-fleet", "rl.train_episodes=100")
    train_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    price_p = sub.add_parser(
        "price",
        help="compare discount pricing policies over one fleet (Table III)",
        parents=[verbosity, telemetry_args],
    )
    _add_scenario_args(price_p, "fleet-price", "pricing.discount_level=0.3")
    price_p.add_argument(
        "--methods",
        type=str,
        default=None,
        metavar="M1,M2,...",
        help="comma-separated policies to compare "
        "(default: none,evening,ours,or,ips,dr)",
    )
    price_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes, one method per job "
        "(0 = all cores; default: serial, byte-identical either way)",
    )
    price_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    presets_p = sub.add_parser(
        "presets", help="list/inspect scenario presets", parents=[verbosity]
    )
    presets_p.add_argument(
        "--show", type=str, default=None, metavar="NAME", help="print a preset as JSON"
    )
    presets_p.add_argument(
        "--check",
        action="store_true",
        help="round-trip and compile every preset (CI smoke check)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="expand a base spec x parameter grid and run every job",
        parents=[verbosity, telemetry_args],
    )
    sweep_p.add_argument(
        "--spec", type=str, default=None, help="SweepSpec JSON file"
    )
    sweep_p.add_argument(
        "--preset", type=str, default=None, help="base scenario from a preset"
    )
    sweep_p.add_argument(
        "--base-spec", type=str, default=None, help="base scenario JSON file"
    )
    sweep_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted override applied to the base before expansion",
    )
    sweep_p.add_argument(
        "--param",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="grid axis, e.g. --param run.seed=0,1,2 (repeatable)",
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = all cores; default: serial, "
        "byte-identical results either way)",
    )
    sweep_p.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="jobs per worker task (default: ~4 chunks per worker; bigger "
        "chunks amortise submit overhead and assembly recompiles)",
    )
    sweep_p.add_argument("--out", type=str, default=None, help="write data as JSON")
    return parser


def _add_scenario_args(
    parser: argparse.ArgumentParser, default_preset: str, set_example: str
) -> None:
    """The ``--spec/--preset/--set`` group plus ``--scale/--seed`` sugar."""
    group = parser.add_argument_group("scenario")
    group.add_argument(
        "--spec", type=str, default=None, help="scenario spec JSON file"
    )
    group.add_argument(
        "--preset",
        type=str,
        default=None,
        help=f"named preset (see `presets`; default: {default_preset})",
    )
    group.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"dotted override, e.g. --set {set_example}",
    )
    group.add_argument(
        "--scale", type=float, default=None, help="sugar for --set run.scale=S"
    )
    group.add_argument(
        "--seed", type=int, default=None, help="sugar for --set run.seed=N"
    )
    parser.set_defaults(default_preset=default_preset)


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns the process exit code."""
    args = build_parser().parse_args(argv)
    log.configure(
        verbose=getattr(args, "verbose", False),
        quiet=getattr(args, "quiet", False),
    )
    try:
        return _dispatch(args)
    except ReproError as error:
        log.error(f"ect-hub {args.command}: error: {error}")
        if isinstance(error, ParallelError) and error.job_traceback:
            log.error("worker traceback (job-side):\n" + error.job_traceback)
        return 1


def _telemetry_session(args: argparse.Namespace) -> Telemetry | None:
    """The run's telemetry session, or ``None`` when not requested."""
    if getattr(args, "telemetry", False) or getattr(args, "trace_out", None):
        return Telemetry()
    return None


def _emit_telemetry(
    telemetry: Telemetry | None, args: argparse.Namespace
) -> None:
    """Print the telemetry summary and write the requested export files.

    Called after the run (and, for sweeps, after job records have been
    absorbed), so the session snapshot is the complete RunTelemetry
    record at this point.
    """
    if telemetry is None:
        return
    for line in telemetry.summary_lines():
        log.info(line)
    record = telemetry.to_dict()
    if getattr(args, "trace_out", None):
        log.info(f"wrote {write_telemetry_json(record, args.trace_out)}")
    if getattr(args, "out", None):
        sidecar = telemetry_sidecar_path(args.out)
        log.info(f"wrote {write_telemetry_json(record, sidecar)}")


def _scenario_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve ``--spec``/``--preset``, ``--scale``/``--seed`` and ``--set``.

    Without ``--spec`` or ``--preset`` the subcommand's default preset is
    the base; :func:`repro.api.resolve_spec` applies the rest.
    """
    from .api import resolve_spec  # local for the same reason as in _dispatch

    if args.spec is not None and args.preset is not None:
        raise ConfigError("--spec and --preset are mutually exclusive")
    return resolve_spec(
        ScenarioSpec.load(args.spec)
        if args.spec is not None
        else args.preset or args.default_preset,
        scale=args.scale,
        seed=args.seed,
        overrides=parse_assignments(args.overrides),
    )


def _price_methods(args: argparse.Namespace) -> tuple[str, ...] | None:
    """Parse ``--methods M1,M2,...`` (``None`` = the default lineup)."""
    if args.methods is None:
        return None
    methods = tuple(
        name.strip() for name in args.methods.split(",") if name.strip()
    )
    if not methods:
        raise ConfigError("--methods needs at least one policy name")
    return methods


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """Resolve the ``sweep`` subcommand's arguments into one SweepSpec."""
    sources = [args.spec, args.preset, args.base_spec]
    if sum(source is not None for source in sources) != 1:
        raise ConfigError(
            "sweep needs exactly one of --spec, --preset, or --base-spec"
        )
    if args.spec is not None:
        sweep = SweepSpec.load(args.spec)
        if args.overrides or args.params:
            raise ConfigError(
                "--set/--param cannot be combined with a full --spec sweep file"
            )
        return sweep
    base = (
        get_preset(args.preset)
        if args.preset is not None
        else ScenarioSpec.load(args.base_spec)
    )
    if args.overrides:
        base = base.with_overrides(parse_assignments(args.overrides))
    if not args.params:
        raise ConfigError("sweep needs at least one --param KEY=V1,V2,... axis")
    parameters: dict[str, tuple] = {}
    for raw in args.params:
        key, sep, values = raw.partition("=")
        if not sep or not key or not values:
            raise ConfigError(f"--param {raw!r} must look like key.path=v1,v2,...")
        if key in parameters:
            raise ConfigError(
                f"--param {key} is given twice; list all its values in one "
                f"axis (--param {key}=v1,v2,...)"
            )
        parameters[key] = tuple(
            parse_override_value(value) for value in values.split(",")
        )
    return SweepSpec(base=base, parameters=parameters, name=f"{base.name}-sweep")


def _dispatch(args: argparse.Namespace) -> int:
    # Local import: repro.api pulls in the experiment registry package,
    # which imports this module's siblings; keep CLI start-up light.
    from . import api

    if args.command == "list":
        for experiment_id in available_experiments():
            log.info(experiment_id)
        return 0
    if args.command == "run":
        telemetry = _telemetry_session(args)
        result = run_experiment(
            args.experiment,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            telemetry=telemetry,
        )
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "run-all":
        results = []
        for experiment_id in available_experiments():
            result = run_experiment(experiment_id, scale=args.scale, seed=args.seed)
            results.append(result)
            log.info(result.rendered())
            log.info("")
        if args.out:
            log.info(f"wrote {write_results_json(results, args.out)}")
        return 0
    if args.command == "fleet":
        telemetry = _telemetry_session(args)
        spec = _scenario_spec(args)
        if args.storage is not None:
            spec = spec.with_overrides({"run.storage": args.storage})
        if args.backend is not None:
            spec = spec.with_overrides({"run.backend": args.backend})
        # --shards stays an api.run *argument* (not a spec override) so
        # the exported data["spec"] — and therefore the whole --out
        # payload — is byte-identical whatever the shard count.
        result = api.run(spec, telemetry=telemetry, shards=args.shards)
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "train-fleet":
        telemetry = _telemetry_session(args)
        result = api.train_fleet(_scenario_spec(args), telemetry=telemetry)
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "price":
        telemetry = _telemetry_session(args)
        result = api.run_pricing(
            _scenario_spec(args),
            methods=_price_methods(args),
            jobs=args.jobs,
            telemetry=telemetry,
        )
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "presets":
        if args.check:
            names = verify_roundtrips(build_specs=True)
            log.info(f"ok: {len(names)} presets round-trip and compile")
            return 0
        if args.show is not None:
            log.info(get_preset(args.show).to_json())
            return 0
        for name in available_presets():
            log.info(f"{name:<24} {get_preset(name).description}")
        return 0
    if args.command == "sweep":
        telemetry = _telemetry_session(args)
        sweep = _sweep_spec(args)
        jobs = sweep.jobs()
        log.info(f"sweep {sweep.name}: {len(jobs)} jobs over {sweep.base.name!r}")
        results = api.run_sweep(
            sweep,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            telemetry=telemetry,
        )
        for job, result in zip(jobs, results):
            data = result.data
            label = job.label() or "(base)"
            log.info(
                f"  [{job.index}] {label}: profit ${data['network_profit']:,.0f}, "
                f"unserved {data['network_unserved_kwh']:,.1f} kWh, "
                f"curtailed {data['import_shortfall_kwh']:,.1f} kWh"
            )
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(results, args.out)}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
