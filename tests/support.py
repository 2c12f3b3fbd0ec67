"""Shared definition builders and a recording provider for the test suite."""

from __future__ import annotations

from smartconn import (
    ConvergenceCriterion,
    DataConstraints,
    Direction,
    ExecParamT,
    ExecParamVM,
    FtStrategy,
    RetryStrategy,
    SCDefinition,
    SchedulingConstraints,
    SemanticRule,
    SweepSpec,
    SyntacticRule,
    TaskCodeKind,
    TaskCodeRef,
    UserReqVM,
)
from smartconn.cloud_sim import FaultPlan, RemoteStep, SimulatedProvider, StepResult, StepStatus


class RecordingProvider(SimulatedProvider):
    """A SimulatedProvider that records, in call order, each run_remote
    call as (vm_id, step, result status) and each next_transfer_outcome
    result, and otherwise behaves exactly like its parent."""

    def __init__(self, plan: FaultPlan):
        super().__init__(plan)
        self.remote_calls: list[tuple[str, RemoteStep, StepStatus]] = []
        self.transfer_outcomes: list[tuple[bool, int]] = []

    def run_remote(self, vm_id: str, step: RemoteStep, now: int) -> StepResult:
        result = super().run_remote(vm_id, step, now)
        self.remote_calls.append((vm_id, step, result.status))
        return result

    def next_transfer_outcome(self) -> tuple[bool, int]:
        result = super().next_transfer_outcome()
        self.transfer_outcomes.append(result)
        return result

X0_CONSTRAINTS = DataConstraints(
    syntactic_rules=(SyntacticRule("x0", "float"),),
    semantic_rules=(SemanticRule("x0", "gt", 0),),
)


def contraction_code(factor: float = 0.5) -> TaskCodeRef:
    return TaskCodeRef(TaskCodeKind.BUILTIN_CONTRACTION, {"start_field": "x0", "factor": factor})


def arithmetic_code() -> TaskCodeRef:
    return TaskCodeRef(TaskCodeKind.BUILTIN_ARITHMETIC, {"op": "add", "fields": ["x0"]})


def demo_definition(max_iterations: int = 10) -> SCDefinition:
    """Single contraction task halving x0 until the value drops below 1."""
    return SCDefinition(
        name="demo-contraction",
        data_constraints=X0_CONSTRAINTS,
        exec_param_vm=ExecParamVM(retry_limit=1),
        exec_param_t=(
            ExecParamT(
                required_inputs=("x0",),
                convergence=ConvergenceCriterion("value", 1.0, Direction.BELOW),
                scheduling_constraints=SchedulingConstraints(min_processes=1),
                max_iterations=max_iterations,
                rerun_limit=1,
                ft_strategy=FtStrategy.RERUN_ELSEWHERE,
            ),
        ),
        t_code=(contraction_code(),),
    )


def simple_definition(
    max_iterations: int = 1,
    retry_limit: int = 0,
    sweep: SweepSpec = SweepSpec(),
    retry_strategy: RetryStrategy = RetryStrategy.BLOCK,
    ft_strategy: FtStrategy = FtStrategy.ABANDON_AND_COLLECT,
    rerun_limit: int = 0,
) -> SCDefinition:
    """One arithmetic task, no convergence criterion."""
    return SCDefinition(
        name="simple",
        data_constraints=X0_CONSTRAINTS,
        exec_param_vm=ExecParamVM(retry_limit=retry_limit, retry_strategy=retry_strategy),
        exec_param_t=(
            ExecParamT(
                required_inputs=("x0",),
                max_iterations=max_iterations,
                rerun_limit=rerun_limit,
                ft_strategy=ft_strategy,
            ),
        ),
        t_code=(arithmetic_code(),),
        sweep=sweep,
    )


def fixed_connector(retry_strategy: RetryStrategy, ft_strategy: FtStrategy, rerun_limit: int = 1) -> SCDefinition:
    """The two-task connector the fault-enumeration suite runs.

    Task 1: contraction from x0=8 by 0.5 with threshold Below 3.0, so it
    converges on its second iteration (values 4.0 then 2.0).
    Task 2: one arithmetic iteration, no criterion.
    Environment: one compiler plus two base steps (3 bootstrap steps per
    VM), one creation retry round allowed.
    """
    return SCDefinition(
        name="fixed-fanout",
        data_constraints=X0_CONSTRAINTS,
        exec_param_vm=ExecParamVM(
            compilers=("cc",),
            retry_limit=1,
            retry_strategy=retry_strategy,
            bootstrap_step_count=2,
        ),
        exec_param_t=(
            ExecParamT(
                required_inputs=("x0",),
                convergence=ConvergenceCriterion("value", 3.0, Direction.BELOW),
                max_iterations=2,
                rerun_limit=rerun_limit,
                ft_strategy=ft_strategy,
            ),
            ExecParamT(
                required_inputs=("x0",),
                max_iterations=1,
                rerun_limit=rerun_limit,
                ft_strategy=ft_strategy,
            ),
        ),
        t_code=(contraction_code(), arithmetic_code()),
    )


FIXED_REQ = UserReqVM(3, 2)
FIXED_INPUT = {"x0": 8.0}
