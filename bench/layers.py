"""Per-layer instrumentation of smartconn for the traced benchmark run.

Layers are the package's modules. Each per-layer metric is a figure for
one round: a time is the round's total in ms, a count is exact and must
repeat in every round of a run. Nothing in the engine queues, waits or
locks (one thread), so no layer has a time-waited metric.
"""

from __future__ import annotations

import os
from pathlib import Path

from spans import Tracer, growth, install_function, install_method

# name -> (unit, better); the order is the order BENCHMARK.json lists them
PER_LAYER = {
    "store_transfer.curate.ms": ("ms", "lower"),
    "store_transfer.curate.growth": ("ratio", "lower"),
    "store_transfer.allocate_job_id.ms": ("ms", "lower"),
    "store_transfer.allocate_job_id.growth": ("ratio", "lower"),
    "store_transfer.save_job.ms": ("ms", "lower"),
    "store_transfer.save_job.calls": ("count", "lower"),
    "store_transfer.transfer_output.ms": ("ms", "lower"),
    "store_transfer.transfer_output.files": ("count", "lower"),
    "store_transfer.transfer_output.bytes": ("bytes", "lower"),
    "store_transfer.save_outputs.ms": ("ms", "lower"),
    "store_transfer.export_plot_data.ms": ("ms", "lower"),
    "store_transfer.load_job.ms": ("ms", "lower"),
    "store_transfer.load_output_records.ms": ("ms", "lower"),
    "store_transfer.store_files": ("count", "lower"),
    "store_transfer.curation_index_bytes": ("bytes", "lower"),
    "sc_execution.run_tasks.ms": ("ms", "lower"),
    "sc_execution.iterations": ("count", "lower"),
    "sc_execution.records": ("count", "higher"),
    "sc_execution.failed_processes": ("count", "lower"),
    "sc_execution.failed_runs": ("count", "lower"),
    "sc_execution.useful_step_ratio": ("ratio", "higher"),
    "cloud_sim.run_remote.bootstrap_calls": ("count", "lower"),
    "cloud_sim.run_remote.task_calls": ("count", "lower"),
    "cloud_sim.run_remote.unreachable": ("count", "lower"),
    "cloud_sim.run_remote.step_failed": ("count", "lower"),
    "cloud_sim.is_reachable.calls": ("count", "lower"),
    "cloud_sim.create_vm.calls": ("count", "lower"),
    "cloud_sim.create_vm.failed": ("count", "lower"),
    "cloud_sim.transfer_draws": ("count", "lower"),
    "cloud_sim.transfer_failed": ("count", "lower"),
    "cloud_sim.journal_entries": ("count", "lower"),
    "vm_env.acquire_vms.ms": ("ms", "lower"),
    "vm_env.retry_rounds": ("count", "lower"),
    "vm_env.insufficient": ("count", "lower"),
    "vm_env.bootstrap.ms": ("ms", "lower"),
    "vm_env.bootstrap.failed": ("count", "lower"),
    "vm_env.cleanup.ms": ("ms", "lower"),
    "vm_env.cleanup.vms": ("count", "lower"),
    "sc_engine.step.calls": ("count", "lower"),
    "sc_engine.step.self_ms": ("ms", "lower"),
    "sc_engine.check_input.ms": ("ms", "lower"),
    "core_model.append_event.calls": ("count", "lower"),
    "sc_engine.outcome.Success": ("count", "higher"),
    "sc_engine.outcome.VmFailed": ("count", "lower"),
    "sc_engine.outcome.ExecFailed": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    # the traced run's throughput, computed as jobs_per_s is; the
    # tracing overhead is the difference between the two
    "trace.jobs_per_s": ("jobs/s", "higher"),
}

# metrics that vary from round to round; every other one is an exact count
TIMED = {name for name, (unit, _) in PER_LAYER.items() if unit in ("ms", "jobs/s") or name.endswith(".growth")}

# spans that must record calls on each workload, so a wrapper left where
# no caller looks the name up fails the run instead of reading zero
_ENGINE = [
    "sc_engine.run_to_completion", "sc_engine.step", "sc_engine.check_input",
    "vm_env.acquire_vms", "vm_env.bootstrap", "vm_env.cleanup", "sc_execution.run_tasks",
    "store_transfer.transfer_output", "core_model.append_event", "cloud_sim.run_remote",
    "cloud_sim.is_reachable", "cloud_sim.create_vm", "cloud_sim.next_transfer_outcome",
]
_STORE = [
    "store_transfer.allocate_job_id", "store_transfer.save_job", "store_transfer.save_outputs",
    "store_transfer.curate", "store_transfer.export_plot_data", "store_transfer.load_job",
    "store_transfer.load_output_records",
]
EXPECTED_SPANS = {
    "store_fill": _ENGINE + _STORE + ["cli.main"],
    "wide_job": _ENGINE + _STORE,
    "fault_fleet": _ENGINE,
}
# fault_fleet is the workload that bypasses the store
FORBIDDEN_SPANS = {"fault_fleet": _STORE + ["cli.main"]}


def _on_job(counts, job, args):
    counts[f"sc_engine.outcome.{job.outcome.kind.value}"] += 1
    counts["cloud_sim.journal_entries"] += len(getattr(args[1].provider, "journal", ()))


def _on_acquire(counts, result, args):
    counts["vm_env.retry_rounds"] += result.attempts_used
    counts["vm_env.insufficient"] += result.verdict.value == "Insufficient"


def _on_bootstrap(counts, result, args):
    counts["vm_env.bootstrap.failed"] += not result.all_ready


def _on_cleanup(counts, report, args):
    counts["vm_env.cleanup.vms"] += len(report.destroyed)


def _on_run_tasks(counts, result, args):
    counts["sc_execution.iterations"] += sum(result.iterations_by_task.values())
    if result.ok:
        counts["sc_execution.records"] += len(result.output.records)
        counts["sc_execution.failed_processes"] += len(result.output.failed)
    else:
        counts["sc_execution.failed_runs"] += 1


def _on_transfer(counts, receipt, args):
    counts["store_transfer.transfer_output.files"] += len(receipt.files)
    counts["store_transfer.transfer_output.bytes"] += sum(f.size for f in receipt.files)


def _on_remote(counts, result, args):
    kind = "bootstrap_calls" if args[2].kind == "bootstrap_step" else "task_calls"
    counts[f"cloud_sim.run_remote.{kind}"] += 1
    if result.status.value == "VmUnreachable":
        counts["cloud_sim.run_remote.unreachable"] += 1
    elif result.status.value == "StepFailed":
        counts["cloud_sim.run_remote.step_failed"] += 1


def _on_create(counts, result, args):
    counts["cloud_sim.create_vm.failed"] += not hasattr(result, "vm_id")


def _on_transfer_draw(counts, result, args):
    counts["cloud_sim.transfer_draws"] += 1
    counts["cloud_sim.transfer_failed"] += not result[0]


def instrument(tracer: Tracer, mods: dict) -> None:
    """Wrap every layer boundary of a freshly imported smartconn."""
    modules = list(mods.values())
    functions = [
        ("smartconn.cli", "main", "cli.main", {}),
        ("smartconn.sc_engine", "run_to_completion", "sc_engine.run_to_completion", {"on_result": _on_job}),
        ("smartconn.sc_engine", "step", "sc_engine.step", {}),
        ("smartconn.sc_engine", "check_input", "sc_engine.check_input", {}),
        ("smartconn.vm_env", "acquire_vms", "vm_env.acquire_vms", {"on_result": _on_acquire}),
        ("smartconn.vm_env", "bootstrap", "vm_env.bootstrap", {"on_result": _on_bootstrap}),
        ("smartconn.vm_env", "cleanup", "vm_env.cleanup", {"on_result": _on_cleanup}),
        ("smartconn.sc_execution", "run_tasks", "sc_execution.run_tasks", {"on_result": _on_run_tasks}),
        ("smartconn.store_transfer", "transfer_output", "store_transfer.transfer_output",
         {"on_result": _on_transfer}),
        ("smartconn.store_transfer", "export_plot_data", "store_transfer.export_plot_data", {}),
        ("smartconn.core_model", "append_event", "core_model.append_event", {"timed": False}),
    ]
    for origin, attr, name, kw in functions:
        if install_function(tracer, modules, mods[origin], attr, name, **kw) == 0:
            raise RuntimeError(f"no module binds {origin}.{attr}")
    store_cls = mods["smartconn.store_transfer"].JobStore
    for attr in ("allocate_job_id", "curate"):
        install_method(tracer, store_cls, attr, f"store_transfer.{attr}", keep_series=True)
    for attr in ("save_job", "save_outputs", "load_job", "load_output_records"):
        install_method(tracer, store_cls, attr, f"store_transfer.{attr}")
    provider_cls = mods["smartconn.cloud_sim"].SimulatedProvider
    for attr, on_result in (
        ("run_remote", _on_remote),
        ("is_reachable", None),
        ("create_vm", _on_create),
        ("next_transfer_outcome", _on_transfer_draw),
    ):
        install_method(tracer, provider_cls, attr, f"cloud_sim.{attr}", timed=False, on_result=on_result)


def span_problems(tracer: Tracer, workload: str) -> list[str]:
    problems = [
        f"span {name} recorded no calls on {workload}"
        for name in EXPECTED_SPANS[workload]
        if tracer.spans[name].calls == 0
    ]
    problems += [
        f"span {name} recorded calls on {workload}, which should not reach it"
        for name in FORBIDDEN_SPANS.get(workload, ())
        if tracer.spans[name].calls != 0
    ]
    return problems


def _store_size(store_dir: Path | None) -> tuple[int, int]:
    if store_dir is None or not store_dir.is_dir():
        return 0, 0
    files = sum(len(names) for _, _, names in os.walk(store_dir))
    index = store_dir / "curation" / "index.jsonl"
    return files, index.stat().st_size if index.is_file() else 0


def round_metrics(tracer: Tracer, store_dir: Path | None) -> dict[str, float]:
    """Every per-layer metric but trace.jobs_per_s for the round the
    tracer has just recorded."""
    spans, counts = tracer.spans, tracer.counts

    def ms(name: str) -> float:
        return spans[name].ns / 1e6

    files, index_bytes = _store_size(store_dir)
    task_calls = counts["cloud_sim.run_remote.task_calls"]
    m = {name: float(counts[name]) for name in PER_LAYER if name != "trace.jobs_per_s"}
    for name in ("curate", "allocate_job_id", "save_job", "transfer_output", "save_outputs",
                 "export_plot_data", "load_job", "load_output_records"):
        m[f"store_transfer.{name}.ms"] = ms(f"store_transfer.{name}")
    m.update({
        "store_transfer.curate.growth": growth(tracer.series["store_transfer.curate"]),
        "store_transfer.allocate_job_id.growth": growth(tracer.series["store_transfer.allocate_job_id"]),
        "store_transfer.save_job.calls": float(spans["store_transfer.save_job"].calls),
        "store_transfer.store_files": float(files),
        "store_transfer.curation_index_bytes": float(index_bytes),
        "sc_execution.run_tasks.ms": ms("sc_execution.run_tasks"),
        "sc_execution.useful_step_ratio": counts["sc_execution.records"] / task_calls if task_calls else 0.0,
        "cloud_sim.is_reachable.calls": float(spans["cloud_sim.is_reachable"].calls),
        "cloud_sim.create_vm.calls": float(spans["cloud_sim.create_vm"].calls),
        "vm_env.acquire_vms.ms": ms("vm_env.acquire_vms"),
        "vm_env.bootstrap.ms": ms("vm_env.bootstrap"),
        "vm_env.cleanup.ms": ms("vm_env.cleanup"),
        "sc_engine.step.calls": float(spans["sc_engine.step"].calls),
        "sc_engine.step.self_ms": spans["sc_engine.step"].self_ns / 1e6,
        "sc_engine.check_input.ms": ms("sc_engine.check_input"),
        "core_model.append_event.calls": float(spans["core_model.append_event"].calls),
        "cli.main.self_ms": spans["cli.main"].self_ns / 1e6,
    })
    return m
