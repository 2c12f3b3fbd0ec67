"""Command line interface.

Exit codes: 0 success, 1 domain failure (unknown job, invalid definition,
corrupt record, ...), 2 usage errors (argparse's default). A job that runs
to completion with a failure outcome is still exit 0; the outcome is data,
printed for the caller.

The argparse tree is built once per process, on first use, and reused by
every later `main()` call; each call still parses into a fresh
Namespace. A shell invocation builds it once either way, so only code
that calls `main()` many times in one process (the test suite, the
`store_fill` benchmark) gains from this.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .cloud_sim import Clock, FaultPlan, SimulatedProvider
from .core_model import SCDefinition, SmartConnError, UserReqVM, validate_definition
from .sc_engine import Env, run_to_completion, start_job
from .store_transfer import JobStore, export_plot_data
from .sweep import launch_sweep

DEFAULT_STORE = "sc_store"


def store_root() -> Path:
    return Path(os.environ.get("SC_STORE", DEFAULT_STORE))


def parse_vms(text: str) -> UserReqVM:
    try:
        ideal_s, minimal_s = text.split(":")
        return UserReqVM(int(ideal_s), int(minimal_s))
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(f"--vms expects I:M with 1 <= M <= I, got {text!r} ({e})")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise SmartConnError(f"cannot read {path}: {e}") from None


def _load_definition(path: str) -> SCDefinition:
    defn = SCDefinition.from_dict(_load_json(path))
    violations = validate_definition(defn)
    if violations:
        raise SmartConnError("invalid definition: " + "; ".join(violations))
    return defn


def _resolve_plan(args: argparse.Namespace, settings: dict) -> FaultPlan:
    if getattr(args, "fault_plan", None):
        return FaultPlan.from_file(args.fault_plan)
    if getattr(args, "seed", None) is not None:
        return FaultPlan.seeded(args.seed)
    provider = settings.get("provider", {})
    if provider.get("fault_plan"):
        return FaultPlan.from_file(provider["fault_plan"])
    if provider.get("seed") is not None:
        return FaultPlan.seeded(int(provider["seed"]))
    return FaultPlan.scripted()


def _resolve_vms(args: argparse.Namespace, settings: dict) -> UserReqVM:
    if args.vms is not None:
        return args.vms
    if settings.get("vms"):
        return parse_vms(str(settings["vms"]))
    raise SmartConnError("no VM request: pass --vms I:M or `settings set vms I:M`")


def _print_job(job) -> None:
    outcome = f"{job.outcome.kind.value}: {job.outcome.detail}" if job.outcome else "-"
    print(f"{job.job_id}  state={job.state.value}  outcome={outcome}")


def cmd_job_create(args: argparse.Namespace) -> int:
    store = JobStore(store_root())
    settings = store.load_settings()
    defn = _load_definition(args.definition)
    data_input = _load_json(args.input)
    req = _resolve_vms(args, settings)
    plan = _resolve_plan(args, settings)
    destination = args.dest or settings.get("destination")
    env = Env(SimulatedProvider(plan), Clock(), store=store)
    job = start_job(defn, data_input, req, destination=destination, job_id=store.allocate_job_id())
    job = run_to_completion(job, env)
    _print_job(job)
    return 0


def cmd_job_list(args: argparse.Namespace) -> int:
    store = JobStore(store_root())
    print(f"{'JOB':<12} {'STATE':<12} OUTCOME")
    for job in store.list_jobs():
        outcome = job.outcome.kind.value if job.outcome else "-"
        print(f"{job.job_id:<12} {job.state.value:<12} {outcome}")
    return 0


def cmd_job_status(args: argparse.Namespace) -> int:
    store = JobStore(store_root())
    job = store.load_job(args.job_id)
    _print_job(job)
    print(f"vm_pool={list(job.vm_pool)} iterations={dict(job.iteration)}")
    if args.events:
        sys.stdout.write(job.event_log.to_jsonl())
    return 0


def cmd_sweep_run(args: argparse.Namespace) -> int:
    store = JobStore(store_root())
    settings = store.load_settings()
    defn = _load_definition(args.definition)
    base_input = _load_json(args.input)
    req = _resolve_vms(args, settings)
    destination = args.dest or settings.get("destination")

    def env_factory(i: int, binding) -> Env:
        if getattr(args, "seed", None) is not None:
            plan = FaultPlan.seeded(args.seed + i)
        else:
            plan = _resolve_plan(args, settings)
        return Env(SimulatedProvider(plan), Clock(), store=store)

    jobs = launch_sweep(defn, base_input, req, env_factory, destination=destination)
    sweep_id = store.allocate_sweep_id()
    store.save_sweep(sweep_id, [j.job_id for j in jobs])
    print(f"{sweep_id}  jobs={len(jobs)}")
    for job in jobs:
        _print_job(job)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .sc_engine import replay

    defn = _load_definition(args.definition)
    data_input = _load_json(args.input)
    plan = FaultPlan.from_file(args.fault_plan)
    first = replay(defn, data_input, args.vms, plan).to_jsonl()
    second = replay(defn, data_input, args.vms, plan).to_jsonl()
    if first != second:
        print("replay mismatch: runs diverged", file=sys.stderr)
        return 1
    sys.stdout.write(first)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    store = JobStore(store_root())
    if args.sweep:
        job_ids = store.load_sweep(args.sweep)
    else:
        job_ids = [args.job]
    metrics = [m for m in args.metrics.split(",") if m] if args.metrics else []
    csv_text = export_plot_data(store, job_ids, metrics)
    Path(args.out).write_text(csv_text)
    print(f"wrote {args.out}")
    return 0


def cmd_settings(args: argparse.Namespace) -> int:
    store = JobStore(store_root())
    settings = store.load_settings()
    if args.action == "get":
        if args.key is None:
            print(json.dumps(settings, indent=2, sort_keys=True))
            return 0
        value = settings
        for part in args.key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise SmartConnError(f"setting {args.key!r} is not set")
            value = value[part]
        print(json.dumps(value))
        return 0
    # set
    parts = args.key.split(".")
    target = settings
    for part in parts[:-1]:
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise SmartConnError(f"setting {args.key!r} conflicts with an existing value")
    try:
        value = json.loads(args.value)
    except json.JSONDecodeError:
        value = args.value
    target[parts[-1]] = value
    store.save_settings(settings)
    print(f"{args.key} = {json.dumps(value)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="smartconn",
        description="Run fault-tolerant connector jobs over a simulated VM pool.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    job = sub.add_parser("job", help="create and inspect jobs")
    job_sub = job.add_subparsers(dest="job_command", required=True)

    create = job_sub.add_parser("create", help="create a job and run it to completion")
    create.add_argument("--def", dest="definition", required=True, metavar="FILE")
    create.add_argument("--input", required=True, metavar="FILE")
    create.add_argument("--vms", type=parse_vms, metavar="I:M")
    plan_group = create.add_mutually_exclusive_group()
    plan_group.add_argument("--fault-plan", metavar="FILE")
    plan_group.add_argument("--seed", type=int)
    create.add_argument("--dest", metavar="PATH")
    create.set_defaults(func=cmd_job_create)

    lst = job_sub.add_parser("list", help="list stored jobs")
    lst.set_defaults(func=cmd_job_list)

    status = job_sub.add_parser("status", help="show one job")
    status.add_argument("job_id")
    status.add_argument("--events", action="store_true", help="also print the event log")
    status.set_defaults(func=cmd_job_status)

    sweep = sub.add_parser("sweep", help="run parameter sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    run = sweep_sub.add_parser("run", help="run one job per sweep binding")
    run.add_argument("--def", dest="definition", required=True, metavar="FILE")
    run.add_argument("--input", required=True, metavar="FILE")
    run.add_argument("--vms", type=parse_vms, metavar="I:M")
    plan_group = run.add_mutually_exclusive_group()
    plan_group.add_argument("--fault-plan", metavar="FILE")
    plan_group.add_argument("--seed", type=int)
    run.add_argument("--dest", metavar="PATH")
    run.set_defaults(func=cmd_sweep_run)

    rep = sub.add_parser("replay", help="re-run a job from a fault plan and print its event log")
    rep.add_argument("--def", dest="definition", required=True, metavar="FILE")
    rep.add_argument("--input", required=True, metavar="FILE")
    rep.add_argument("--vms", type=parse_vms, required=True, metavar="I:M")
    rep.add_argument("--fault-plan", required=True, metavar="FILE")
    rep.set_defaults(func=cmd_replay)

    exp = sub.add_parser("export", help="export job metrics as CSV")
    target = exp.add_mutually_exclusive_group(required=True)
    target.add_argument("--job", metavar="ID")
    target.add_argument("--sweep", metavar="ID")
    exp.add_argument("--metrics", required=True, metavar="m1,m2")
    exp.add_argument("--out", required=True, metavar="FILE.csv")
    exp.set_defaults(func=cmd_export)

    settings = sub.add_parser("settings", help="get or set defaults")
    settings_sub = settings.add_subparsers(dest="action", required=True)
    get = settings_sub.add_parser("get")
    get.add_argument("key", nargs="?")
    get.set_defaults(func=cmd_settings)
    st = settings_sub.add_parser("set")
    st.add_argument("key")
    st.add_argument("value")
    st.set_defaults(func=cmd_settings)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SmartConnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
