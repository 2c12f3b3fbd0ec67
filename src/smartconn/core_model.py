"""Domain types for smart connector jobs: definitions, signals, the event
log, and the worst-case duration bound.

Everything in this module is an immutable value with a stable JSON form:
records are typing.NamedTuple classes, which are cheaper to build and to
copy than frozen dataclasses, and a changed copy is `rec._replace(...)`.
UserReqVM and CostModel stay frozen dataclasses because they validate in
__post_init__. Being tuples, records must reach JSON through to_dict()
only, and compare equal to any tuple of the same values. State only ever
changes by building new values; the transition logic itself lives in
sc_engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple

Scalar = str | int | float | bool

#: The default of every Mapping field: one shared, read-only empty mapping.
EMPTY_MAPPING: Mapping[Any, Any] = MappingProxyType({})

#: Sweep variables may not shadow the column names the exporter owns.
RESERVED_PARAM_NAMES = frozenset({"job_id", "process", "task", "iteration"})


class SmartConnError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidDefinition(SmartConnError):
    """A connector definition failed validation; carries the violations."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class EventLogError(SmartConnError):
    """An append would break the event log's ordering or terminal rules."""


class MissingMetric(SmartConnError):
    """A required metric name is absent from every available output."""


# json.dumps with non-default arguments builds a new encoder on every call
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    """Serialize to the canonical form used for digests and replay
    comparison: sorted keys, no whitespace."""
    return _CANONICAL_ENCODER.encode(obj)


# ---------------------------------------------------------------------------
# signal vocabulary


class SignalKind(Enum):
    """The nine signal kinds a job may emit, in lifecycle order."""

    SC_START = "scStart"
    DATA_CHECK_OK = "dataCheckOk"
    DATA_CHECK_FAIL = "dataCheckFail"
    VM_FAIL = "vmFail"
    EXEC_START = "execStart"
    EXEC_FAILED = "execFailed"
    TRANSFER_START = "transferStart"
    TRANSFER_COMPLETED = "transferCompleted"
    SC_COMPLETED = "scCompleted"


class Signal(NamedTuple):
    kind: SignalKind
    payload: Mapping[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind.value, "payload": dict(self.payload) if self.payload else None}


class Event(NamedTuple):
    """One event-log entry: a signal observed at a virtual time."""

    virtual_time: int
    signal: Signal
    source: str

    def to_dict(self) -> dict[str, Any]:
        d = self.signal.to_dict()
        return {"t": self.virtual_time, "kind": d["kind"], "source": self.source, "payload": d["payload"]}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Event":
        sig = Signal(SignalKind(d["kind"]), d.get("payload") or None)
        return cls(int(d["t"]), sig, str(d["source"]))


class EventLog(NamedTuple):
    """Append-only sequence of events with non-decreasing virtual times.

    A log that contains scCompleted is terminal: nothing may follow it.
    """

    entries: tuple[Event, ...] = ()

    def last_time(self) -> int:
        return self.entries[-1].virtual_time if self.entries else 0

    def kinds(self) -> tuple[SignalKind, ...]:
        return tuple(e.signal.kind for e in self.entries)

    def has(self, kind: SignalKind) -> bool:
        return any(e.signal.kind is kind for e in self.entries)

    def to_jsonl(self) -> str:
        return "".join(canonical_json(e.to_dict()) + "\n" for e in self.entries)

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        events = tuple(Event.from_dict(json.loads(line)) for line in text.splitlines() if line.strip())
        return cls(events)


def append_event(log: EventLog, virtual_time: int, signal: Signal, source: str) -> EventLog:
    """Return a new log extended by one event.

    Rejects appends that move time backwards and any append to a log that
    already contains scCompleted.
    """
    if log.has(SignalKind.SC_COMPLETED):
        raise EventLogError("event log is terminal: scCompleted already recorded")
    if log.entries and virtual_time < log.last_time():
        raise EventLogError(
            f"time regression: append at t={virtual_time} after t={log.last_time()}"
        )
    return EventLog(log.entries + (Event(virtual_time, signal, source),))


# ---------------------------------------------------------------------------
# connector definition


class RetryStrategy(Enum):
    BLOCK = "Block"
    SINGLE = "Single"


class FtStrategy(Enum):
    ABANDON_AND_COLLECT = "AbandonAndCollect"
    RERUN_ELSEWHERE = "RerunElsewhere"


class Direction(Enum):
    BELOW = "Below"
    ABOVE = "Above"


class TaskCodeKind(Enum):
    BUILTIN_ARITHMETIC = "BuiltinArithmetic"
    BUILTIN_CONTRACTION = "BuiltinContraction"
    EXTERNAL_COMMAND = "ExternalCommand"


_SCALAR_TYPES = {"int", "float", "str", "bool"}


class SyntacticRule(NamedTuple):
    """Presence/type rule for one input field."""

    name: str
    type: str
    required: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.type, "required": self.required}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SyntacticRule":
        return cls(d["name"], d["type"], bool(d.get("required", True)))


class SemanticRule(NamedTuple):
    """Comparison over parsed input values.

    Exactly one of `value` (compare against a constant) or `other_field`
    (compare against another input field) is set.
    """

    field: str
    op: str
    value: Scalar | None = None
    other_field: str | None = None

    def label(self) -> str:
        rhs = self.other_field if self.other_field is not None else self.value
        return f"{self.field} {self.op} {rhs}"

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"field": self.field, "op": self.op}
        if self.other_field is not None:
            d["other_field"] = self.other_field
        else:
            d["value"] = self.value
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SemanticRule":
        return cls(d["field"], d["op"], d.get("value"), d.get("other_field"))


class DataConstraints(NamedTuple):
    syntactic_rules: tuple[SyntacticRule, ...] = ()
    semantic_rules: tuple[SemanticRule, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "syntactic_rules": [r.to_dict() for r in self.syntactic_rules],
            "semantic_rules": [r.to_dict() for r in self.semantic_rules],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "DataConstraints":
        return cls(
            tuple(SyntacticRule.from_dict(r) for r in d.get("syntactic_rules", ())),
            tuple(SemanticRule.from_dict(r) for r in d.get("semantic_rules", ())),
        )


class ExecParamVM(NamedTuple):
    """Environment-setup parameters: what to install and how hard to retry."""

    compilers: tuple[str, ...] = ()
    retry_limit: int = 0
    retry_strategy: RetryStrategy = RetryStrategy.BLOCK
    bootstrap_step_count: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "compilers": list(self.compilers),
            "retry_limit": self.retry_limit,
            "retry_strategy": self.retry_strategy.value,
            "bootstrap_step_count": self.bootstrap_step_count,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExecParamVM":
        return cls(
            tuple(d.get("compilers", ())),
            int(d.get("retry_limit", 0)),
            RetryStrategy(d.get("retry_strategy", "Block")),
            int(d.get("bootstrap_step_count", 1)),
        )


class ConvergenceCriterion(NamedTuple):
    metric_name: str
    threshold: float
    direction: Direction

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric_name": self.metric_name,
            "threshold": self.threshold,
            "direction": self.direction.value,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ConvergenceCriterion":
        return cls(d["metric_name"], float(d["threshold"]), Direction(d["direction"]))


class SchedulingConstraints(NamedTuple):
    min_processes: int | None = None
    colocate: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"min_processes": self.min_processes, "colocate": self.colocate}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SchedulingConstraints":
        mp = d.get("min_processes")
        return cls(int(mp) if mp is not None else None, bool(d.get("colocate", False)))


class ExecParamT(NamedTuple):
    """Per-task execution parameters."""

    required_inputs: tuple[str, ...] = ()
    convergence: ConvergenceCriterion | None = None
    scheduling_constraints: SchedulingConstraints | None = None
    max_iterations: int = 1
    rerun_limit: int = 0
    ft_strategy: FtStrategy = FtStrategy.ABANDON_AND_COLLECT

    def to_dict(self) -> dict[str, Any]:
        return {
            "required_inputs": list(self.required_inputs),
            "convergence": self.convergence.to_dict() if self.convergence else None,
            "scheduling_constraints": (
                self.scheduling_constraints.to_dict() if self.scheduling_constraints else None
            ),
            "max_iterations": self.max_iterations,
            "rerun_limit": self.rerun_limit,
            "ft_strategy": self.ft_strategy.value,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExecParamT":
        conv = d.get("convergence")
        sched = d.get("scheduling_constraints")
        return cls(
            tuple(d.get("required_inputs", ())),
            ConvergenceCriterion.from_dict(conv) if conv else None,
            SchedulingConstraints.from_dict(sched) if sched else None,
            int(d.get("max_iterations", 1)),
            int(d.get("rerun_limit", 0)),
            FtStrategy(d.get("ft_strategy", "AbandonAndCollect")),
        )


class TaskCodeRef(NamedTuple):
    """Reference to the code a task runs plus its kind-specific parameters.

    Kinds: BuiltinContraction needs `factor` and one of `start` /
    `start_field`; BuiltinArithmetic needs `op` and `fields`;
    ExternalCommand needs a `command` template.
    """

    kind: TaskCodeKind
    spec: Mapping[str, Any] = EMPTY_MAPPING

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind.value, "spec": dict(self.spec)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TaskCodeRef":
        return cls(TaskCodeKind(d["kind"]), dict(d.get("spec", {})))


class SweepSpec(NamedTuple):
    """Named variables, each with an ordered list of values to sweep."""

    variables: Mapping[str, tuple[Scalar, ...]] = EMPTY_MAPPING

    def to_dict(self) -> dict[str, Any]:
        return {"variables": {k: list(v) for k, v in self.variables.items()}}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SweepSpec":
        return cls({k: tuple(v) for k, v in d.get("variables", {}).items()})


class SCDefinition(NamedTuple):
    """A reusable connector definition: constraints, environment and task
    parameters, task code references, and an optional sweep."""

    name: str
    data_constraints: DataConstraints = DataConstraints()
    exec_param_vm: ExecParamVM = ExecParamVM()
    exec_param_t: tuple[ExecParamT, ...] = ()
    t_code: tuple[TaskCodeRef, ...] = ()
    sweep: SweepSpec = SweepSpec()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "data_constraints": self.data_constraints.to_dict(),
            "exec_param_vm": self.exec_param_vm.to_dict(),
            "exec_param_t": [t.to_dict() for t in self.exec_param_t],
            "t_code": [t.to_dict() for t in self.t_code],
            "sweep": self.sweep.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SCDefinition":
        return cls(
            d["name"],
            DataConstraints.from_dict(d.get("data_constraints", {})),
            ExecParamVM.from_dict(d.get("exec_param_vm", {})),
            tuple(ExecParamT.from_dict(t) for t in d.get("exec_param_t", ())),
            tuple(TaskCodeRef.from_dict(t) for t in d.get("t_code", ())),
            SweepSpec.from_dict(d.get("sweep", {})),
        )


@dataclass(frozen=True)
class UserReqVM:
    """User VM request: the ideal pool size and the minimum acceptable one."""

    ideal: int
    minimal: int

    def __post_init__(self) -> None:
        if not (1 <= self.minimal <= self.ideal):
            raise ValueError(
                f"invalid VM request: need 1 <= minimal <= ideal, got ideal={self.ideal} minimal={self.minimal}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"ideal": self.ideal, "minimal": self.minimal}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "UserReqVM":
        return cls(int(d["ideal"]), int(d["minimal"]))


# ---------------------------------------------------------------------------
# job state


class JobState(Enum):
    CREATED = "Created"
    DATA_CHECKING = "DataChecking"
    ENV_SETUP = "EnvSetup"
    EXECUTING = "Executing"
    TRANSFERRING = "Transferring"
    CLEANING_UP = "CleaningUp"
    COMPLETED = "Completed"


class OutcomeKind(Enum):
    SUCCESS = "Success"
    DATA_CHECK_FAILED = "DataCheckFailed"
    VM_FAILED = "VmFailed"
    EXEC_FAILED = "ExecFailed"


class Outcome(NamedTuple):
    kind: OutcomeKind
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind.value, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Outcome":
        return cls(OutcomeKind(d["kind"]), d.get("detail", ""))


class Job(NamedTuple):
    """One connector execution. Immutable; the engine's step function
    returns successor values."""

    job_id: str
    definition: SCDefinition
    data_input: Mapping[str, Scalar]
    user_req_vm: UserReqVM
    state: JobState = JobState.CREATED
    vm_pool: tuple[str, ...] = ()
    iteration: Mapping[int, int] = EMPTY_MAPPING
    event_log: EventLog = EventLog()
    outcome: Outcome | None = None
    destination: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "definition": self.definition.to_dict(),
            "data_input": dict(self.data_input),
            "user_req_vm": self.user_req_vm.to_dict(),
            "state": self.state.value,
            "vm_pool": list(self.vm_pool),
            "iteration": {str(k): v for k, v in self.iteration.items()},
            "event_log": [e.to_dict() for e in self.event_log.entries],
            "outcome": self.outcome.to_dict() if self.outcome else None,
            "destination": self.destination,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Job":
        outcome = d.get("outcome")
        return cls(
            d["job_id"],
            SCDefinition.from_dict(d["definition"]),
            dict(d["data_input"]),
            UserReqVM.from_dict(d["user_req_vm"]),
            JobState(d["state"]),
            tuple(d.get("vm_pool", ())),
            {int(k): v for k, v in d.get("iteration", {}).items()},
            EventLog(tuple(Event.from_dict(e) for e in d.get("event_log", ()))),
            Outcome.from_dict(outcome) if outcome else None,
            d.get("destination"),
        )


# ---------------------------------------------------------------------------
# definition validation


def _check_task_code(idx: int, ref: TaskCodeRef, out: list[str]) -> None:
    spec = ref.spec
    if ref.kind is TaskCodeKind.BUILTIN_CONTRACTION:
        if "factor" not in spec:
            out.append(f"t_code[{idx}]: BuiltinContraction requires 'factor'")
        if "start" not in spec and "start_field" not in spec:
            out.append(f"t_code[{idx}]: BuiltinContraction requires 'start' or 'start_field'")
    elif ref.kind is TaskCodeKind.BUILTIN_ARITHMETIC:
        if spec.get("op") not in ("add", "mul"):
            out.append(f"t_code[{idx}]: BuiltinArithmetic requires op 'add' or 'mul'")
        if not spec.get("fields"):
            out.append(f"t_code[{idx}]: BuiltinArithmetic requires non-empty 'fields'")
    elif ref.kind is TaskCodeKind.EXTERNAL_COMMAND:
        if not spec.get("command"):
            out.append(f"t_code[{idx}]: ExternalCommand requires 'command'")


def validate_definition(defn: SCDefinition) -> list[str]:
    """Return every violation in the definition, empty when it is valid.

    Violations are returned as data rather than raised so callers can show
    them all at once; start_job is the place that turns a non-empty result
    into InvalidDefinition.
    """
    out: list[str] = []
    if not defn.name:
        out.append("name: must be non-empty")
    if len(defn.exec_param_t) < 1:
        out.append("exec_param_t: at least one task is required")
    if len(defn.t_code) != len(defn.exec_param_t):
        out.append(
            f"t_code length {len(defn.t_code)} != exec_param_t length {len(defn.exec_param_t)}"
        )

    vm = defn.exec_param_vm
    if vm.retry_limit < 0:
        out.append(f"exec_param_vm.retry_limit: must be >= 0 (got {vm.retry_limit})")
    if vm.bootstrap_step_count < 1:
        out.append(
            f"exec_param_vm.bootstrap_step_count: must be >= 1 (got {vm.bootstrap_step_count})"
        )

    for i, t in enumerate(defn.exec_param_t):
        if t.max_iterations < 1:
            out.append(f"exec_param_t[{i}].max_iterations: must be >= 1 (got {t.max_iterations})")
        if t.rerun_limit < 0:
            out.append(f"exec_param_t[{i}].rerun_limit: must be >= 0 (got {t.rerun_limit})")
        if t.convergence is not None and not math.isfinite(t.convergence.threshold):
            out.append(f"exec_param_t[{i}].convergence.threshold: must be finite")
        sc = t.scheduling_constraints
        if sc is not None and sc.min_processes is not None and sc.min_processes < 1:
            out.append(
                f"exec_param_t[{i}].scheduling_constraints.min_processes: must be >= 1 (got {sc.min_processes})"
            )

    for i, ref in enumerate(defn.t_code):
        _check_task_code(i, ref, out)

    for r in defn.data_constraints.syntactic_rules:
        if not r.name:
            out.append("data_constraints: syntactic rule must name a field")
        if r.type not in _SCALAR_TYPES:
            out.append(f"data_constraints: rule '{r.name}' has unknown type '{r.type}'")
    for r in defn.data_constraints.semantic_rules:
        if not r.field:
            out.append("data_constraints: semantic rule must name a field")
        if (r.value is None) == (r.other_field is None):
            out.append(
                f"data_constraints: rule '{r.label()}' must set exactly one of value/other_field"
            )
        if r.op not in ("lt", "le", "gt", "ge", "eq", "ne"):
            out.append(f"data_constraints: rule '{r.label()}' has unknown op '{r.op}'")

    for name, values in defn.sweep.variables.items():
        if not name:
            out.append("sweep: variable names must be non-empty")
        if name in RESERVED_PARAM_NAMES:
            out.append(f"sweep variable '{name}': name is reserved")
        if len(values) == 0:
            out.append(f"sweep variable '{name}': empty value list")
    return out


# ---------------------------------------------------------------------------
# cost model and the worst-case duration bound


@dataclass(frozen=True)
class CostModel:
    """Worst-case tick cost of each phase.

    `task_iteration` is indexed by task; tasks beyond the tuple reuse its
    last entry so a scalar-ish model stays easy to write.
    """

    data_check: int = 1
    vm_create_attempt: int = 1
    bootstrap: int = 1
    task_iteration: tuple[int, ...] = (1,)
    transfer: int = 1
    cleanup_per_vm: int = 1

    def __post_init__(self) -> None:
        costs = (
            self.data_check,
            self.vm_create_attempt,
            self.bootstrap,
            self.transfer,
            self.cleanup_per_vm,
            *self.task_iteration,
        )
        if not self.task_iteration or any(c < 0 for c in costs):
            raise ValueError("cost model needs non-negative costs and at least one task cost")

    def task_cost(self, task_index: int) -> int:
        """Cost of one iteration of the 1-based task_index."""
        i = min(task_index - 1, len(self.task_iteration) - 1)
        return self.task_iteration[i]


def wcet_bound(defn: SCDefinition, req: UserReqVM, cost: CostModel) -> int:
    """Upper bound on a job's total virtual duration.

    data_check
      + (1 + retry_limit) * vm_create_attempt
      + bootstrap
      + sum over tasks k of max_iterations_k * task_iteration_k
      + transfer
      + ideal * cleanup_per_vm

    Every phase the engine runs advances the clock by at most its term here,
    so the bound dominates any observed completion time.
    """
    violations = validate_definition(defn)
    if violations:
        raise InvalidDefinition(violations)
    exec_total = sum(
        t.max_iterations * cost.task_cost(k) for k, t in enumerate(defn.exec_param_t, start=1)
    )
    return (
        cost.data_check
        + (1 + defn.exec_param_vm.retry_limit) * cost.vm_create_attempt
        + cost.bootstrap
        + exec_total
        + cost.transfer
        + req.ideal * cost.cleanup_per_vm
    )
