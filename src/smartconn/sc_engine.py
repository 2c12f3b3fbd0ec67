"""The job state machine.

    Created --(check ok)--> EnvSetup --(pool+bootstrap ok)--> Executing
       |                        |                                 |
       | check fail             | vmFail                          | execFailed
       v                        v                                 v
    Completed(DataCheckFailed)  CleaningUp <------------------ CleaningUp
                                    ^                              |
    Executing --ok--> Transferring -+   (transfer ok or failed)    |
                                    v                              v
                                 Completed(outcome) <-- scCompleted

Each `step` call performs one phase at the environment's clock, appends
the phase's signal to the job's event log, and returns the successor job
value, built with one `job._replace(...)`. A failed data check
terminates immediately: nothing was acquired, so there is no cleanup
phase and no scCompleted. Every other path funnels through CleaningUp,
which destroys every VM the job ever created and emits scCompleted
exactly once. The outcome is Success exactly when transferCompleted
made it into the log.
"""

from __future__ import annotations

import operator
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

from .cloud_sim import Clock, FaultPlan, SimulatedProvider
from .core_model import (
    CostModel,
    DataConstraints,
    EventLog,
    InvalidDefinition,
    Job,
    JobState,
    Outcome,
    OutcomeKind,
    Scalar,
    SCDefinition,
    Signal,
    SignalKind,
    SmartConnError,
    UserReqVM,
    append_event,
    validate_definition,
)
from .sc_execution import TaskRunOutput, run_tasks
from .store_transfer import JobStore, TransferFailed, TransferReceipt, transfer_output
from .vm_env import AllocationVerdict, acquire_vms, bootstrap, cleanup

SRC_USER = "user"
SRC_DATA_ANALYSIS = "DataAnalysis"
SRC_ENV_SETUP = "EnvSetUpVM"
SRC_EXECUTION = "SCExecution"
SRC_TRANSFER = "OutputTransfer"
SRC_CLEANUP = "EnvCleanUp"


class StepOnCompleted(SmartConnError):
    """step() was called on a job that already completed."""


# ---------------------------------------------------------------------------
# input checking


class CheckResult(NamedTuple):
    ok: bool
    reasons: tuple[str, ...] = ()


_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}

_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


def check_input(data_input: Mapping[str, Scalar], constraints: DataConstraints) -> CheckResult:
    """Evaluate every rule and report every violation, not just the first.

    Syntactic rules (presence, scalar type) run first; semantic rules then
    run on the parsed values, skipping rules whose operands are already
    reported missing or ill-typed.
    """
    reasons: list[str] = []
    bad_fields: set[str] = set()
    for rule in constraints.syntactic_rules:
        if rule.name not in data_input:
            if rule.required:
                reasons.append(f"{rule.name}: required")
                bad_fields.add(rule.name)
            continue
        if not _TYPE_CHECKS[rule.type](data_input[rule.name]):
            reasons.append(f"{rule.name}: expected {rule.type}, got {data_input[rule.name]!r}")
            bad_fields.add(rule.name)
    for rule in constraints.semantic_rules:
        operands = [rule.field] + ([rule.other_field] if rule.other_field is not None else [])
        if any(f in bad_fields for f in operands):
            continue
        missing = [f for f in operands if f not in data_input]
        if missing:
            reasons.append(f"{rule.label()}: field {missing[0]!r} not present")
            continue
        left = data_input[rule.field]
        right = data_input[rule.other_field] if rule.other_field is not None else rule.value
        try:
            holds = _OPS[rule.op](left, right)
        except TypeError:
            holds = False
        if not holds:
            reasons.append(f"{rule.field}: violates {rule.label()} (got {left!r})")
    return CheckResult(not reasons, tuple(reasons))


# ---------------------------------------------------------------------------
# the engine environment


@dataclass
class Env:
    """Everything a job run needs besides the job value itself. One Env
    per job: the clock and fault-plan cursors are job-local. Mutable, unlike
    the records: each phase updates its clock and its phase products."""

    provider: SimulatedProvider
    clock: Clock = field(default_factory=Clock)
    cost: CostModel = CostModel()  # frozen, so one instance serves every Env
    store: JobStore | None = None
    transfer_retry_limit: int = 1
    # phase products that are not part of the persisted job record
    pending_output: dict[str, TaskRunOutput] = field(default_factory=dict)
    receipts: dict[str, TransferReceipt] = field(default_factory=dict)


def start_job(
    defn: SCDefinition,
    data_input: Mapping[str, Scalar],
    req: UserReqVM,
    destination: str | None = None,
    job_id: str | None = None,
) -> Job:
    """Create a job in state Created with scStart already logged at tick 0.

    Raises InvalidDefinition when the definition has violations.
    """
    violations = validate_definition(defn)
    if violations:
        raise InvalidDefinition(violations)
    log = append_event(EventLog(), 0, Signal(SignalKind.SC_START), SRC_USER)
    return Job(
        job_id=job_id or f"job-{os.urandom(6).hex()}",
        definition=defn,
        data_input=dict(data_input),
        user_req_vm=req,
        state=JobState.CREATED,
        event_log=log,
        destination=destination,
    )


def _emit(
    log: EventLog, env: Env, kind: SignalKind, source: str, payload: Mapping[str, Any] | None = None
) -> EventLog:
    return append_event(log, env.clock.now, Signal(kind, payload), source)


def _derive_outcome(log: EventLog) -> Outcome:
    """The terminal outcome is a pure function of the signal history."""
    def payload_of(kind: SignalKind) -> Mapping[str, Any]:
        for e in log.entries:
            if e.signal.kind is kind:
                return e.signal.payload or {}
        return {}

    if log.has(SignalKind.TRANSFER_COMPLETED):
        return Outcome(OutcomeKind.SUCCESS, "output transferred and environment cleaned up")
    if log.has(SignalKind.VM_FAIL):
        return Outcome(OutcomeKind.VM_FAILED, str(payload_of(SignalKind.VM_FAIL).get("reason", "")))
    return Outcome(OutcomeKind.EXEC_FAILED, str(payload_of(SignalKind.EXEC_FAILED).get("reason", "")))


def step(job: Job, env: Env) -> tuple[Job, tuple[Signal, ...]]:
    """Advance the job by one phase; returns the successor and the signals
    emitted during the phase."""
    if job.state is JobState.COMPLETED:
        raise StepOnCompleted(f"job {job.job_id} already completed")
    log = job.event_log
    before = len(log.entries)
    changes: dict[str, Any] = {}

    if job.state is JobState.CREATED:
        env.clock.advance(env.cost.data_check)
        result = check_input(job.data_input, job.definition.data_constraints)
        if result.ok:
            log = _emit(log, env, SignalKind.DATA_CHECK_OK, SRC_DATA_ANALYSIS)
            changes["state"] = JobState.ENV_SETUP
        else:
            log = _emit(
                log, env, SignalKind.DATA_CHECK_FAIL, SRC_DATA_ANALYSIS,
                {"reasons": list(result.reasons)},
            )
            changes["state"] = JobState.COMPLETED
            changes["outcome"] = Outcome(OutcomeKind.DATA_CHECK_FAILED, "; ".join(result.reasons))

    elif job.state is JobState.ENV_SETUP:
        acq = acquire_vms(env.provider, job.user_req_vm, job.definition.exec_param_vm, env.clock.now)
        env.clock.advance((1 + acq.attempts_used) * env.cost.vm_create_attempt)
        changes["vm_pool"] = acq.generated_vm
        if acq.verdict is AllocationVerdict.INSUFFICIENT:
            payload = {"reason": "could not acquire the minimal VM pool", "acquisition": acq.to_payload()}
            log = _emit(log, env, SignalKind.VM_FAIL, SRC_ENV_SETUP, payload)
            changes["state"] = JobState.CLEANING_UP
        else:
            env.clock.advance(env.cost.bootstrap)
            boot = bootstrap(env.provider, acq.generated_vm, job.definition.exec_param_vm, env.clock.now)
            if boot.all_ready:
                log = _emit(log, env, SignalKind.EXEC_START, SRC_ENV_SETUP, {"vms": list(acq.generated_vm)})
                changes["state"] = JobState.EXECUTING
            else:
                payload = {
                    "reason": f"bootstrap failed on {boot.failed_vm}: {boot.reason}",
                    "acquisition": acq.to_payload(),
                    "bootstrap": boot.to_payload(),
                }
                log = _emit(log, env, SignalKind.VM_FAIL, SRC_ENV_SETUP, payload)
                changes["state"] = JobState.CLEANING_UP

    elif job.state is JobState.EXECUTING:
        result = run_tasks(
            env.provider, job.definition, job.data_input, job.vm_pool, env.clock, env.cost
        )
        changes["iteration"] = dict(result.iterations_by_task)
        if result.ok:
            env.pending_output[job.job_id] = result.output
            log = _emit(
                log, env, SignalKind.TRANSFER_START, SRC_EXECUTION,
                {"records": len(result.output.records), "partial": result.output.partial},
            )
            changes["state"] = JobState.TRANSFERRING
        else:
            log = _emit(log, env, SignalKind.EXEC_FAILED, SRC_EXECUTION, {"reason": result.reason})
            changes["state"] = JobState.CLEANING_UP

    elif job.state is JobState.TRANSFERRING:
        env.clock.advance(env.cost.transfer)
        output = env.pending_output[job.job_id]
        destination = job.destination or _default_destination(env)
        try:
            receipt = transfer_output(
                output, destination, job.job_id, env.provider,
                env.transfer_retry_limit, env.clock.now,
            )
            env.receipts[job.job_id] = receipt
            log = _emit(
                log, env, SignalKind.TRANSFER_COMPLETED, SRC_TRANSFER,
                {"files": len(receipt.files)},
            )
        except TransferFailed as e:
            log = _emit(log, env, SignalKind.EXEC_FAILED, SRC_TRANSFER, {"reason": str(e)})
        changes["state"] = JobState.CLEANING_UP

    elif job.state is JobState.CLEANING_UP:
        env.clock.advance(env.cost.cleanup_per_vm * len(job.vm_pool))
        report = cleanup(env.provider, job.vm_pool, env.clock.now)
        log = _emit(log, env, SignalKind.SC_COMPLETED, SRC_CLEANUP, {"destroyed": list(report.destroyed)})
        changes["state"] = JobState.COMPLETED
        changes["outcome"] = _derive_outcome(log)

    emitted = tuple(e.signal for e in log.entries[before:])
    return job._replace(event_log=log, **changes), emitted


def _default_destination(env: Env) -> str:
    if env.store is not None:
        return str(env.store.transfers_dir)
    return tempfile.mkdtemp(prefix="smartconn-out-")


def run_to_completion(job: Job, env: Env) -> Job:
    """Drive the job until Completed, then, with a store, save its outputs,
    its one status record and a transferred result's curation, in that
    order: a run that dies midway leaves no record that misreports it."""
    while job.state is not JobState.COMPLETED:
        job, _ = step(job, env)
    if env.store is not None:
        output = env.pending_output.get(job.job_id)
        if output is not None:
            env.store.save_outputs(job.job_id, output)
        env.store.save_job(job)
        receipt = env.receipts.get(job.job_id)
        if receipt is not None:
            env.store.curate(receipt, job, output)
    return job


def replay(
    defn: SCDefinition,
    data_input: Mapping[str, Scalar],
    req: UserReqVM,
    fault_plan: FaultPlan,
    cost: CostModel | None = None,
) -> EventLog:
    """Run the job fresh from the given plan and return its event log.
    Same arguments, same log, byte for byte."""
    with tempfile.TemporaryDirectory(prefix="smartconn-replay-") as tmp:
        env = Env(SimulatedProvider(fault_plan), Clock(), cost or CostModel())
        job = start_job(defn, data_input, req, destination=tmp)
        job = run_to_completion(job, env)
        return job.event_log


# ---------------------------------------------------------------------------
# protocol audit


def verify_signal_protocol(log: EventLog) -> list[str]:
    """Check the signal-ordering rules every job log must satisfy.
    Returns the violations found (empty for a conforming log)."""
    problems: list[str] = []
    kinds = list(log.kinds())
    times = [e.virtual_time for e in log.entries]

    def index(kind: SignalKind) -> int | None:
        return kinds.index(kind) if kind in kinds else None

    if not kinds or kinds[0] is not SignalKind.SC_START:
        problems.append("log must open with scStart")
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        problems.append("virtual times must be non-decreasing")
    if kinds.count(SignalKind.SC_COMPLETED) > 1:
        problems.append("more than one scCompleted")
    done = index(SignalKind.SC_COMPLETED)
    if done is not None and done != len(kinds) - 1:
        problems.append("scCompleted must be the final entry")
    terminal = [
        k for k in kinds
        if k in (SignalKind.DATA_CHECK_FAIL, SignalKind.VM_FAIL,
                 SignalKind.EXEC_FAILED, SignalKind.TRANSFER_COMPLETED)
    ]
    if len(terminal) > 1:
        problems.append(f"more than one outcome-determining signal: {[k.value for k in terminal]}")
    if SignalKind.DATA_CHECK_FAIL in kinds:
        after = set(kinds) - {SignalKind.SC_START, SignalKind.DATA_CHECK_FAIL}
        if after:
            problems.append("dataCheckFail must terminate the job without further signals")
    for later, earlier in (
        (SignalKind.EXEC_START, SignalKind.DATA_CHECK_OK),
        (SignalKind.TRANSFER_START, SignalKind.EXEC_START),
        (SignalKind.TRANSFER_COMPLETED, SignalKind.TRANSFER_START),
    ):
        li, ei = index(later), index(earlier)
        if li is not None and (ei is None or ei > li):
            problems.append(f"{later.value} requires an earlier {earlier.value}")
    for k in (SignalKind.VM_FAIL, SignalKind.EXEC_FAILED, SignalKind.TRANSFER_COMPLETED):
        ki = index(k)
        if ki is not None and done is None:
            problems.append(f"{k.value} must eventually be followed by scCompleted")
    return problems
