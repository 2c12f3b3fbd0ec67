"""Task execution over an acquired pool: scheduling, iteration, fault
tolerance, and convergence checking.

A task fans out into processes (pool size by default, or the task's
min_processes). Each iteration schedules that many fresh process
instances round-robin over the VMs still reachable when the iteration is
planned, runs one remote step per process, then reacts to VMs lost in
flight with the task's strategy: AbandonAndCollect writes the stranded
processes off and keeps the survivors' outputs, RerunElsewhere moves them
to reachable VMs until the per-process rerun budget runs out. A failure
inside the task code itself is never recovered; it aborts the run.

Results are named tuples. ProcessInstance and IterationOutcome stay
dataclasses because the loop mutates them, and TaskRunOutput because it
caches its encoded records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Mapping, NamedTuple

from .cloud_sim import Clock, KIND_TASK, RemoteStep, SimulatedProvider, StepStatus
from .core_model import (
    EMPTY_MAPPING,
    ConvergenceCriterion,
    CostModel,
    Direction,
    ExecParamT,
    FtStrategy,
    MissingMetric,
    Scalar,
    SCDefinition,
    SchedulingConstraints,
    SmartConnError,
    TaskCodeKind,
    TaskCodeRef,
    canonical_json,
)


class UnsatisfiableConstraint(SmartConnError):
    """The scheduler cannot place the requested processes."""


class TaskCodeError(SmartConnError):
    """The task's own code failed; deliberately not recoverable."""

    def __init__(self, process_id: str, detail: str):
        self.process_id = process_id
        self.detail = detail
        super().__init__(f"task code failed in {process_id}: {detail}")


class ProcessStatus(Enum):
    PENDING = "Pending"
    DONE = "Done"
    RERUNNABLE = "Rerunnable"
    FAILED_BEYOND_RECOVERY = "FailedBeyondRecovery"


@dataclass
class ProcessInstance:
    """One process slot of one task iteration. Mutated only by the
    single-threaded loop in this module."""

    process_id: str
    task_index: int
    iteration: int
    params: Mapping[str, Scalar]
    assigned_vm: str | None = None
    status: ProcessStatus = ProcessStatus.PENDING
    rerun_count: int = 0
    output: "OutputRecord | None" = None


class OutputRecord(NamedTuple):
    """What one process produced in one iteration."""

    process: str
    task: int
    iteration: int
    metrics: Mapping[str, float]
    payload: str | None = None

    @property
    def payload_path(self) -> str | None:
        """Where the transfer writes the payload, relative to the job's
        transfer root; None when the record carries no payload."""
        if self.payload is None:
            return None
        return f"payloads/{self.process}-i{self.iteration}.txt"

    def to_dict(self) -> dict[str, Any]:
        """The record's records.jsonl line, before canonical encoding."""
        return {
            "process": self.process,
            "task": self.task,
            "iteration": self.iteration,
            "metrics": dict(self.metrics),
            "payload_path": self.payload_path,
        }


class Assignment(NamedTuple):
    """process_id -> vm_id for one iteration."""

    mapping: Mapping[str, str]


def schedule(
    processes: list[ProcessInstance],
    vms: list[str],
    constraints: SchedulingConstraints | None,
) -> Assignment:
    """Deterministic placement: processes ordered by (task_index,
    process_id) go round-robin over the VMs sorted by id. A colocated
    task puts all of its processes on the lowest VM id.
    """
    if not processes:
        return Assignment({})
    if not vms:
        raise UnsatisfiableConstraint("no VMs available to schedule on")
    ordered = sorted(processes, key=lambda p: (p.task_index, p.process_id))
    targets = sorted(vms)
    mapping: dict[str, str] = {}
    if constraints is not None and constraints.colocate:
        for p in ordered:
            mapping[p.process_id] = targets[0]
    else:
        for i, p in enumerate(ordered):
            mapping[p.process_id] = targets[i % len(targets)]
    for p in processes:
        p.assigned_vm = mapping[p.process_id]
    return Assignment(mapping)


# ---------------------------------------------------------------------------
# task code semantics


def run_task_code(t_code: TaskCodeRef, process: ProcessInstance) -> OutputRecord:
    """Produce the process's output for its iteration.

    BuiltinContraction: value = start * factor**iteration, metric named by
    spec['metric'] (default 'value'); start comes from spec['start'] or
    from the input field spec['start_field'].

    BuiltinArithmetic: fold 'add' or 'mul' over the named input fields,
    then apply the optional constant; iteration-independent.

    ExternalCommand: renders the command template against the process
    params; the simulated environment records the rendering as payload and
    yields no metrics.
    """
    spec = t_code.spec
    params = process.params
    if t_code.kind is TaskCodeKind.BUILTIN_CONTRACTION:
        if "start" in spec:
            start = float(spec["start"])
        else:
            name = spec["start_field"]
            if name not in params:
                raise TaskCodeError(process.process_id, f"input field {name!r} not available")
            start = float(params[name])
        value = start * float(spec["factor"]) ** process.iteration
        metric = spec.get("metric", "value")
        return OutputRecord(process.process_id, process.task_index, process.iteration, {metric: value})
    if t_code.kind is TaskCodeKind.BUILTIN_ARITHMETIC:
        values = []
        for name in spec["fields"]:
            if name not in params:
                raise TaskCodeError(process.process_id, f"input field {name!r} not available")
            values.append(float(params[name]))
        if spec["op"] == "add":
            value = sum(values) + float(spec.get("constant", 0.0))
        else:
            value = float(spec.get("constant", 1.0))
            for v in values:
                value *= v
        metric = spec.get("metric", "value")
        return OutputRecord(process.process_id, process.task_index, process.iteration, {metric: value})
    # ExternalCommand
    try:
        rendered = str(spec["command"]).format(
            iteration=process.iteration, process=process.process_id, **params
        )
    except (KeyError, IndexError) as e:
        raise TaskCodeError(process.process_id, f"command template: missing {e}") from None
    return OutputRecord(
        process.process_id, process.task_index, process.iteration, {}, payload=rendered
    )


# ---------------------------------------------------------------------------
# fault handling


def detect_unreachable(
    provider: SimulatedProvider, assignment: Assignment, now: int
) -> tuple[set[str], set[str]]:
    """(lost VM ids, affected process ids) for an assignment at `now`."""
    lost = {vm for vm in set(assignment.mapping.values()) if not provider.is_reachable(vm, now)}
    affected = {pid for pid, vm in assignment.mapping.items() if vm in lost}
    return lost, affected


class RevisedPlan(NamedTuple):
    reassigned: Mapping[str, str]  # process_id -> new vm_id
    failed: tuple[str, ...]  # process ids now failed beyond recovery


def apply_ft_strategy(
    affected: list[ProcessInstance],
    strategy: FtStrategy,
    rerun_limit: int,
    healthy_vms: list[str],
) -> RevisedPlan:
    """Decide what happens to processes whose VM was lost.

    AbandonAndCollect fails them all. RerunElsewhere moves each process
    with remaining budget round-robin over the healthy VMs and fails the
    rest; with no healthy VM left everything fails.
    """
    ordered = sorted(affected, key=lambda p: p.process_id)
    if strategy is FtStrategy.ABANDON_AND_COLLECT or not healthy_vms:
        return RevisedPlan({}, tuple(p.process_id for p in ordered))
    targets = sorted(healthy_vms)
    reassigned: dict[str, str] = {}
    failed: list[str] = []
    slot = 0
    for p in ordered:
        if p.rerun_count < rerun_limit:
            reassigned[p.process_id] = targets[slot % len(targets)]
            slot += 1
        else:
            failed.append(p.process_id)
    return RevisedPlan(reassigned, tuple(failed))


# ---------------------------------------------------------------------------
# iteration execution and convergence


@dataclass
class IterationOutcome:
    outputs: dict[str, OutputRecord]
    failed_beyond_recovery: set[str] = field(default_factory=set)


class ConvergenceVerdict(NamedTuple):
    converged: bool
    metric: float


def check_convergence(outcome: IterationOutcome, criterion: ConvergenceCriterion) -> ConvergenceVerdict:
    """Aggregate the iteration's outputs (minimum of the named metric over
    the processes that finished) and compare against the threshold."""
    values = [
        r.metrics[criterion.metric_name]
        for r in outcome.outputs.values()
        if criterion.metric_name in r.metrics
    ]
    if not values:
        raise MissingMetric(f"no completed output carries metric {criterion.metric_name!r}")
    metric = min(values)
    if criterion.direction is Direction.BELOW:
        return ConvergenceVerdict(metric < criterion.threshold, metric)
    return ConvergenceVerdict(metric > criterion.threshold, metric)


def _dispatch(
    provider: SimulatedProvider, process: ProcessInstance, t_code: TaskCodeRef, now: int
) -> StepStatus:
    """Run one remote step for a process; on success attach the output."""
    step = RemoteStep(
        KIND_TASK,
        f"task {process.task_index} iteration {process.iteration}",
        process=process.process_id,
        task=process.task_index,
        iteration=process.iteration,
    )
    result = provider.run_remote(process.assigned_vm, step, now)
    if result.status is StepStatus.OK:
        process.output = run_task_code(t_code, process)
        process.status = ProcessStatus.DONE
    elif result.status is StepStatus.STEP_FAILED:
        raise TaskCodeError(
            process.process_id, f"step failed (plan position {result.plan_position})"
        )
    return result.status


def execute_iteration(
    provider: SimulatedProvider,
    processes: list[ProcessInstance],
    t_code: TaskCodeRef,
    param: ExecParamT,
    pool: tuple[str, ...],
    now: int,
) -> IterationOutcome:
    """Run every process of one iteration at tick `now`, applying the
    task's fault-tolerance strategy to any that land on a lost VM."""
    outcome = IterationOutcome({})
    by_id = {p.process_id: p for p in processes}
    pending = sorted(processes, key=lambda p: p.process_id)
    while pending:
        affected: list[ProcessInstance] = []
        for p in pending:
            status = _dispatch(provider, p, t_code, now)
            if status is StepStatus.VM_UNREACHABLE:
                p.status = ProcessStatus.RERUNNABLE
                affected.append(p)
            elif status is StepStatus.OK:
                outcome.outputs[p.process_id] = p.output
        if not affected:
            break
        healthy = [vm for vm in pool if provider.is_reachable(vm, now)]
        plan = apply_ft_strategy(affected, param.ft_strategy, param.rerun_limit, healthy)
        for pid in plan.failed:
            by_id[pid].status = ProcessStatus.FAILED_BEYOND_RECOVERY
            outcome.failed_beyond_recovery.add(pid)
        pending = []
        for pid, vm in sorted(plan.reassigned.items()):
            p = by_id[pid]
            p.assigned_vm = vm
            p.rerun_count += 1
            pending.append(p)
    return outcome


# ---------------------------------------------------------------------------
# the per-job task loop


class TaskSummary(NamedTuple):
    iterations_run: int
    converged: bool | None  # None when the task has no criterion
    final_metric: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "iterations": self.iterations_run,
            "converged": self.converged,
            "final_metric": self.final_metric,
        }


@dataclass(frozen=True)
class TaskRunOutput:
    records: tuple[OutputRecord, ...]
    task_summaries: Mapping[int, TaskSummary]
    failed: tuple[tuple[str, int], ...]  # (process_id, iteration)
    partial: bool

    @cached_property
    def records_jsonl(self) -> bytes:
        """records.jsonl: one canonical record per line, in output order.
        Encoded on first use; the transfer and the store write these bytes."""
        return "".join([canonical_json(r.to_dict()) + "\n" for r in self.records]).encode()


class TaskRunResult(NamedTuple):
    ok: bool
    output: TaskRunOutput | None = None
    reason: str | None = None
    iterations_by_task: Mapping[int, int] = EMPTY_MAPPING


def run_tasks(
    provider: SimulatedProvider,
    defn: SCDefinition,
    data_input: Mapping[str, Scalar],
    vm_pool: tuple[str, ...],
    clock: Clock,
    cost: CostModel,
) -> TaskRunResult:
    """Run every task in definition order, iterating each until it
    converges or exhausts max_iterations. Hitting max_iterations without
    convergence still succeeds; the task summary keeps converged=False.
    Returns a failure result when scheduling is unsatisfiable, the task
    code breaks, a criterion's metric is missing, or an iteration ends
    with nothing collected.
    """
    records: list[OutputRecord] = []
    summaries: dict[int, TaskSummary] = {}
    failed: list[tuple[str, int]] = []
    iterations: dict[int, int] = {}

    def fail(reason: str) -> TaskRunResult:
        return TaskRunResult(False, None, reason, dict(iterations))

    for k, (param, t_code) in enumerate(zip(defn.exec_param_t, defn.t_code), start=1):
        missing = [n for n in param.required_inputs if n not in data_input]
        if missing:
            return fail(f"task {k}: required inputs missing from data input: {missing}")
        params = {n: data_input[n] for n in param.required_inputs}
        sched = param.scheduling_constraints
        n_processes = (
            sched.min_processes if sched and sched.min_processes is not None else len(vm_pool)
        )
        converged: bool | None = None
        metric: float | None = None
        for i in range(1, param.max_iterations + 1):
            iterations[k] = i
            healthy = [vm for vm in vm_pool if provider.is_reachable(vm, clock.now)]
            processes = [
                ProcessInstance(f"t{k}p{j}", k, i, params) for j in range(1, n_processes + 1)
            ]
            try:
                schedule(processes, healthy, sched)  # sets each process's assigned_vm
            except UnsatisfiableConstraint as e:
                return fail(f"task {k} iteration {i}: scheduling failed: {e}")
            clock.advance(cost.task_cost(k))
            try:
                out = execute_iteration(provider, processes, t_code, param, vm_pool, clock.now)
            except TaskCodeError as e:
                return fail(f"task {k} iteration {i}: {e}")
            failed.extend((pid, i) for pid in sorted(out.failed_beyond_recovery))
            if not out.outputs:
                return fail(f"task {k} iteration {i}: no collectible outputs remain")
            records.extend(out.outputs[pid] for pid in sorted(out.outputs))
            if param.convergence is not None:
                try:
                    verdict = check_convergence(out, param.convergence)
                except MissingMetric as e:
                    return fail(f"task {k} iteration {i}: {e}")
                metric = verdict.metric
                converged = verdict.converged
                if verdict.converged:
                    break
        summaries[k] = TaskSummary(iterations[k], converged, metric)

    output = TaskRunOutput(tuple(records), summaries, tuple(failed), partial=bool(failed))
    return TaskRunResult(True, output, None, dict(iterations))
