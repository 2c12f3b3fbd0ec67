import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartconn.cloud_sim import Clock, FaultPlan, ReachabilityLoss, SimulatedProvider
from smartconn.core_model import (
    ConvergenceCriterion,
    CostModel,
    Direction,
    FtStrategy,
    MissingMetric,
    SchedulingConstraints,
)
from smartconn.sc_execution import (
    Assignment,
    ConvergenceVerdict,
    IterationOutcome,
    OutputRecord,
    ProcessInstance,
    ProcessStatus,
    TaskCodeError,
    UnsatisfiableConstraint,
    apply_ft_strategy,
    check_convergence,
    detect_unreachable,
    execute_iteration,
    run_task_code,
    run_tasks,
    schedule,
)

from support import (
    FIXED_INPUT,
    FIXED_REQ,
    RecordingProvider,
    arithmetic_code,
    contraction_code,
    demo_definition,
    simple_definition,
)


def make_processes(n, task=1, iteration=1, params=None):
    return [ProcessInstance(f"t{task}p{j}", task, iteration, params or {}) for j in range(1, n + 1)]


def ready_pool(provider, n):
    vms = []
    for _ in range(n):
        vm = provider.create_vm()
        provider.mark_bootstrapped(vm.vm_id)
        vms.append(vm.vm_id)
    return tuple(vms)


# ---------------------------------------------------------------------------
# scheduling


def test_round_robin_assignment_four_processes_two_vms():
    a = schedule(make_processes(4), ["vm-1", "vm-0"], None)
    assert a.mapping == {"t1p1": "vm-0", "t1p2": "vm-1", "t1p3": "vm-0", "t1p4": "vm-1"}


def test_colocate_puts_everything_on_the_lowest_vm_id():
    a = schedule(make_processes(3), ["vm-2", "vm-1"], SchedulingConstraints(colocate=True))
    assert set(a.mapping.values()) == {"vm-1"}


def test_schedule_records_the_assignment_on_the_instances():
    ps = make_processes(2)
    schedule(ps, ["vm-0"], None)
    assert [p.assigned_vm for p in ps] == ["vm-0", "vm-0"]


def test_schedule_with_no_vms_is_unsatisfiable():
    with pytest.raises(UnsatisfiableConstraint):
        schedule(make_processes(1), [], None)


def test_schedule_nothing_on_nothing_is_fine():
    assert schedule([], [], None).mapping == {}


@given(
    n_procs=st.integers(min_value=1, max_value=9),
    n_vms=st.integers(min_value=1, max_value=5),
)
def test_round_robin_is_balanced(n_procs, n_vms):
    vms = [f"vm-{i}" for i in range(n_vms)]
    a = schedule(make_processes(n_procs), vms, None)
    counts = [list(a.mapping.values()).count(v) for v in vms]
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == n_procs


# ---------------------------------------------------------------------------
# task code


def test_contraction_halves_per_iteration():
    code = contraction_code()
    values = []
    for i in range(1, 5):
        p = ProcessInstance("t1p1", 1, i, {"x0": 8.0})
        values.append(run_task_code(code, p).metrics["value"])
    assert values == [4.0, 2.0, 1.0, 0.5]


def test_arithmetic_add_is_iteration_independent():
    code = arithmetic_code()
    out1 = run_task_code(code, ProcessInstance("t1p1", 1, 1, {"x0": 8.0}))
    out9 = run_task_code(code, ProcessInstance("t1p1", 1, 9, {"x0": 8.0}))
    assert out1.metrics == out9.metrics == {"value": 8.0}


def test_task_code_missing_input_field_is_a_task_error():
    with pytest.raises(TaskCodeError, match="x0"):
        run_task_code(contraction_code(), ProcessInstance("t1p1", 1, 1, {}))


def test_external_command_renders_params_into_payload():
    from smartconn.core_model import TaskCodeKind, TaskCodeRef

    code = TaskCodeRef(TaskCodeKind.EXTERNAL_COMMAND, {"command": "solve --x {x0} --iter {iteration}"})
    out = run_task_code(code, ProcessInstance("t1p2", 1, 3, {"x0": 8.0}))
    assert out.payload == "solve --x 8.0 --iter 3"
    assert out.metrics == {}


# ---------------------------------------------------------------------------
# fault handling primitives


def test_detect_unreachable_reports_lost_vms_and_their_processes():
    p = SimulatedProvider(FaultPlan.scripted(reachability=[ReachabilityLoss("vm-0", 4)]))
    ready_pool(p, 2)
    a = Assignment({"t1p1": "vm-0", "t1p2": "vm-1", "t1p3": "vm-0"})
    lost, affected = detect_unreachable(p, a, now=4)
    assert lost == {"vm-0"}
    assert affected == {"t1p1", "t1p3"}


def test_abandon_and_collect_fails_every_affected_process():
    ps = make_processes(2)
    plan = apply_ft_strategy(ps, FtStrategy.ABANDON_AND_COLLECT, rerun_limit=5, healthy_vms=["vm-1"])
    assert plan.reassigned == {}
    assert plan.failed == ("t1p1", "t1p2")


def test_rerun_elsewhere_moves_processes_with_budget_left():
    ps = make_processes(3)
    ps[2].rerun_count = 1  # at the limit already
    plan = apply_ft_strategy(ps, FtStrategy.RERUN_ELSEWHERE, rerun_limit=1, healthy_vms=["vm-2", "vm-1"])
    assert plan.reassigned == {"t1p1": "vm-1", "t1p2": "vm-2"}
    assert plan.failed == ("t1p3",)


def test_rerun_elsewhere_without_healthy_vms_degrades_to_abandon():
    plan = apply_ft_strategy(make_processes(2), FtStrategy.RERUN_ELSEWHERE, 3, healthy_vms=[])
    assert plan.failed == ("t1p1", "t1p2")


# ---------------------------------------------------------------------------
# convergence


def outcome_with(values):
    outputs = {
        f"t1p{j}": OutputRecord(f"t1p{j}", 1, 1, {"value": v}) for j, v in enumerate(values, 1)
    }
    return IterationOutcome(outputs)


def test_convergence_takes_the_minimum_over_processes():
    crit = ConvergenceCriterion("value", 0.5, Direction.BELOW)
    assert check_convergence(outcome_with([0.4, 0.6]), crit) == ConvergenceVerdict(True, 0.4)


def test_not_yet_converged_below_threshold():
    crit = ConvergenceCriterion("value", 0.5, Direction.BELOW)
    assert check_convergence(outcome_with([0.5, 0.9]), crit) == ConvergenceVerdict(False, 0.5)


def test_above_direction_compares_the_other_way():
    crit = ConvergenceCriterion("score", 2.0, Direction.ABOVE)
    outputs = {"t1p1": OutputRecord("t1p1", 1, 1, {"score": 2.5})}
    assert check_convergence(IterationOutcome(outputs), crit).converged is True


def test_missing_metric_everywhere_raises():
    crit = ConvergenceCriterion("energy", 0.5, Direction.BELOW)
    with pytest.raises(MissingMetric, match="energy"):
        check_convergence(outcome_with([0.4]), crit)


# ---------------------------------------------------------------------------
# execute_iteration


def test_iteration_all_ok_collects_every_output():
    p = SimulatedProvider(FaultPlan.scripted())
    pool = ready_pool(p, 2)
    ps = make_processes(2, params={"x0": 8.0})
    schedule(ps, list(pool), None)
    out = execute_iteration(p, ps, contraction_code(), demo_definition().exec_param_t[0], pool, now=4)
    assert sorted(out.outputs) == ["t1p1", "t1p2"]
    assert not out.failed_beyond_recovery
    assert all(x.status is ProcessStatus.DONE for x in ps)


def test_iteration_survivors_are_kept_when_a_vm_is_lost_and_abandoned():
    plan = FaultPlan.scripted(reachability=[ReachabilityLoss("vm-0", 4)])
    p = SimulatedProvider(plan)
    pool = ready_pool(p, 2)
    ps = make_processes(2, params={"x0": 8.0})
    schedule(ps, list(pool), None)
    param = demo_definition().exec_param_t[0]._replace(
        rerun_limit=0, ft_strategy=FtStrategy.ABANDON_AND_COLLECT
    )
    out = execute_iteration(p, ps, contraction_code(), param, pool, now=4)
    assert sorted(out.outputs) == ["t1p2"]
    assert out.failed_beyond_recovery == {"t1p1"}


def test_iteration_rerun_reaches_a_surviving_vm():
    plan = FaultPlan.scripted(reachability=[ReachabilityLoss("vm-0", 4)])
    p = SimulatedProvider(plan)
    pool = ready_pool(p, 2)
    ps = make_processes(2, params={"x0": 8.0})
    schedule(ps, list(pool), None)
    out = execute_iteration(p, ps, contraction_code(), demo_definition().exec_param_t[0], pool, now=4)
    assert sorted(out.outputs) == ["t1p1", "t1p2"]
    assert ps[0].rerun_count == 1 and ps[0].assigned_vm == "vm-1"


def test_iteration_task_code_failure_is_not_recovered():
    p = SimulatedProvider(FaultPlan.scripted(task_step=[True, False]))
    pool = ready_pool(p, 2)
    ps = make_processes(2, params={"x0": 8.0})
    schedule(ps, list(pool), None)
    with pytest.raises(TaskCodeError, match="t1p2"):
        execute_iteration(p, ps, contraction_code(), demo_definition().exec_param_t[0], pool, now=4)


# ---------------------------------------------------------------------------
# run_tasks


def run_demo(plan=None, defn=None, data=None):
    provider = RecordingProvider(plan or FaultPlan.scripted())
    pool = ready_pool(provider, 3)
    clock = Clock()
    clock.advance(3)  # as if data check and env setup already happened
    result = run_tasks(
        provider, defn or demo_definition(), data or dict(FIXED_INPUT), pool, clock, CostModel()
    )
    return provider, result


def test_contraction_converges_on_the_fourth_iteration():
    _, result = run_demo()
    assert result.ok
    assert result.iterations_by_task == {1: 4}
    summary = result.output.task_summaries[1]
    assert summary.iterations_run == 4 and summary.converged is True
    assert summary.final_metric == pytest.approx(0.5)
    assert [r.metrics["value"] for r in result.output.records] == [4.0, 2.0, 1.0, 0.5]


def test_max_iterations_without_convergence_is_still_a_successful_run():
    defn = demo_definition(max_iterations=2)
    _, result = run_demo(defn=defn)
    assert result.ok
    assert result.output.task_summaries[1].converged is False
    assert result.iterations_by_task == {1: 2}


def test_task_code_error_reports_the_failing_task_and_iteration():
    defn = simple_definition()
    provider = SimulatedProvider(FaultPlan.scripted(task_step=[False]))
    pool = ready_pool(provider, 1)
    result = run_tasks(provider, defn, {"x0": 2.0}, pool, Clock(), CostModel())
    assert not result.ok
    assert result.reason.startswith("task 1 iteration 1:")
    assert result.iterations_by_task == {1: 1}


def test_missing_required_input_fails_before_any_dispatch():
    provider, result = run_demo(data={"unrelated": 1.0})
    assert not result.ok
    assert "required inputs missing" in result.reason
    assert not provider.remote_calls


def test_losing_every_vm_leaves_nothing_collectible():
    plan = FaultPlan.scripted(
        reachability=[ReachabilityLoss(f"vm-{i}", 0) for i in range(3)]
    )
    _, result = run_demo(plan=plan)
    assert not result.ok
    assert "scheduling failed" in result.reason


def test_identical_runs_produce_identical_records():
    _, r1 = run_demo()
    _, r2 = run_demo()
    assert r1.output.records == r2.output.records
    assert r1.output.task_summaries == r2.output.task_summaries


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_seeded_runs_never_break_the_result_contract(seed):
    plan = FaultPlan.seeded(seed, p_task_fail=0.1, p_vm_loss=0.1)
    provider = SimulatedProvider(plan)
    pool = ready_pool(provider, 3)
    result = run_tasks(provider, demo_definition(), dict(FIXED_INPUT), pool, Clock(), CostModel())
    if result.ok:
        assert result.output is not None and result.reason is None
        assert result.output.records  # a successful run collected something
    else:
        assert result.output is None and result.reason
