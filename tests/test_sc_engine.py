import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from smartconn.cloud_sim import (
    Clock,
    FaultPlan,
    ReachabilityLoss,
    SimulatedProvider,
    VmLifecycle,
)
from smartconn.core_model import (
    CostModel,
    DataConstraints,
    InvalidDefinition,
    JobState,
    OutcomeKind,
    SCDefinition,
    SemanticRule,
    SignalKind,
    SyntacticRule,
    UserReqVM,
    wcet_bound,
)
from smartconn.sc_engine import (
    Env,
    StepOnCompleted,
    check_input,
    replay,
    run_to_completion,
    start_job,
    step,
    verify_signal_protocol,
)

from support import FIXED_INPUT, demo_definition, simple_definition

REQ = UserReqVM(3, 2)
SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def run(plan=None, defn=None, data=None, req=REQ, destination=None, env=None, **env_kwargs):
    env = env or Env(SimulatedProvider(plan or FaultPlan.scripted()), **env_kwargs)
    job = start_job(defn or demo_definition(), data or dict(FIXED_INPUT), req, destination)
    return run_to_completion(job, env), env


def kinds(job):
    return [k.value for k in job.event_log.kinds()]


# ---------------------------------------------------------------------------
# input checking


STEPS_CONSTRAINTS = DataConstraints(
    syntactic_rules=(
        SyntacticRule("steps", "int"),
        SyntacticRule("temperature", "float"),
        SyntacticRule("label", "str", required=False),
    ),
    semantic_rules=(
        SemanticRule("temperature", "ge", 0),
        SemanticRule("steps", "le", "max_steps", other_field="max_steps"),
    ),
)


def test_check_input_accepts_a_conforming_record():
    data = {"steps": 10, "max_steps": 100, "temperature": 300.0}
    assert check_input(data, STEPS_CONSTRAINTS).ok


def test_check_input_reports_every_violation():
    result = check_input({"temperature": -4.0, "max_steps": 5}, STEPS_CONSTRAINTS)
    assert not result.ok
    assert "steps: required" in result.reasons
    assert any("temperature" in r and "ge" in r for r in result.reasons)


def test_check_input_type_mismatch_message():
    result = check_input({"steps": "ten", "temperature": 1.0, "max_steps": 5}, STEPS_CONSTRAINTS)
    assert "steps: expected int, got 'ten'" in result.reasons


def test_check_input_bool_is_not_an_int():
    result = check_input({"steps": True, "temperature": 1.0, "max_steps": 5}, STEPS_CONSTRAINTS)
    assert any(r.startswith("steps: expected int") for r in result.reasons)


def test_check_input_cross_field_rule_needs_its_other_field():
    result = check_input({"steps": 3, "temperature": 1.0}, STEPS_CONSTRAINTS)
    assert any("max_steps" in r and "not present" in r for r in result.reasons)


def test_semantic_rule_skipped_when_the_field_already_failed_syntax():
    result = check_input({"steps": 1, "temperature": "hot", "max_steps": 5}, STEPS_CONSTRAINTS)
    # one syntactic complaint about temperature, no semantic follow-up
    complaints = [r for r in result.reasons if r.startswith("temperature")]
    assert complaints == ["temperature: expected float, got 'hot'"]


# ---------------------------------------------------------------------------
# start_job / step mechanics


def test_start_job_emits_sc_start_at_tick_zero():
    job = start_job(demo_definition(), dict(FIXED_INPUT), REQ)
    assert job.state is JobState.CREATED
    entry = job.event_log.entries[0]
    assert entry.signal.kind is SignalKind.SC_START
    assert entry.virtual_time == 0 and entry.source == "user"


def test_start_job_refuses_an_invalid_definition():
    bad = simple_definition()
    bad = type(bad)(
        name=bad.name,
        data_constraints=bad.data_constraints,
        exec_param_vm=bad.exec_param_vm,
        exec_param_t=bad.exec_param_t,
        t_code=(),  # length mismatch
        sweep=bad.sweep,
    )
    with pytest.raises(InvalidDefinition) as exc:
        start_job(bad, {"x0": 1.0}, REQ)
    assert exc.value.violations


def test_default_job_ids_are_distinct():
    a = start_job(demo_definition(), dict(FIXED_INPUT), REQ)
    b = start_job(demo_definition(), dict(FIXED_INPUT), REQ)
    assert a.job_id != b.job_id
    assert re.fullmatch(r"job-[0-9a-f]{12}", a.job_id) and re.fullmatch(r"job-[0-9a-f]{12}", b.job_id)


def test_step_walks_the_states_in_order():
    env = Env(SimulatedProvider(FaultPlan.scripted()))
    job = start_job(demo_definition(), dict(FIXED_INPUT), REQ)
    seen = [job.state]
    while job.state is not JobState.COMPLETED:
        job, _ = step(job, env)
        seen.append(job.state)
    assert seen == [
        JobState.CREATED,
        JobState.ENV_SETUP,
        JobState.EXECUTING,
        JobState.TRANSFERRING,
        JobState.CLEANING_UP,
        JobState.COMPLETED,
    ]


def test_step_on_a_completed_job_raises():
    job, env = run()
    with pytest.raises(StepOnCompleted):
        step(job, env)


# ---------------------------------------------------------------------------
# end-to-end signal sequences


def test_clean_run_signal_sequence_and_outcome():
    job, _ = run()
    assert kinds(job) == [
        "scStart", "dataCheckOk", "execStart",
        "transferStart", "transferCompleted", "scCompleted",
    ]
    assert job.outcome.kind is OutcomeKind.SUCCESS
    assert job.iteration == {1: 4}
    assert verify_signal_protocol(job.event_log) == []


def test_data_check_failure_terminates_without_cleanup():
    job, env = run(data={"x0": -1.0})
    assert kinds(job) == ["scStart", "dataCheckFail"]
    assert job.outcome.kind is OutcomeKind.DATA_CHECK_FAILED
    assert "x0" in job.outcome.detail
    assert job.vm_pool == ()
    assert env.provider.created_vm_ids() == ()
    assert verify_signal_protocol(job.event_log) == []


def test_acquisition_shortfall_emits_vm_fail_then_cleanup():
    plan = FaultPlan.scripted(create_vm=[False] * 8)
    job, _ = run(plan=plan)
    assert kinds(job) == ["scStart", "dataCheckOk", "vmFail", "scCompleted"]
    assert job.outcome.kind is OutcomeKind.VM_FAILED
    assert verify_signal_protocol(job.event_log) == []


def test_bootstrap_failure_emits_vm_fail_with_the_step_reason():
    plan = FaultPlan.scripted(bootstrap_step=[False])
    job, _ = run(plan=plan)
    assert kinds(job) == ["scStart", "dataCheckOk", "vmFail", "scCompleted"]
    assert job.outcome.kind is OutcomeKind.VM_FAILED
    assert "bootstrap failed on vm-0" in job.outcome.detail


def test_task_step_failure_emits_exec_failed():
    plan = FaultPlan.scripted(task_step=[False])
    job, _ = run(plan=plan)
    assert kinds(job) == ["scStart", "dataCheckOk", "execStart", "execFailed", "scCompleted"]
    assert job.outcome.kind is OutcomeKind.EXEC_FAILED
    assert "task 1 iteration 1" in job.outcome.detail


def test_losing_the_whole_pool_mid_run_is_exec_failed_not_vm_failed():
    # all three VMs go dark after bootstrap; vmFail is reserved for setup
    plan = FaultPlan.scripted(reachability=[ReachabilityLoss(f"vm-{i}", 4) for i in range(3)])
    job, _ = run(plan=plan)
    assert kinds(job) == ["scStart", "dataCheckOk", "execStart", "execFailed", "scCompleted"]
    assert job.outcome.kind is OutcomeKind.EXEC_FAILED


def test_transfer_failure_after_retries_is_exec_failed():
    plan = FaultPlan.scripted(transfer=[False, False])
    job, _ = run(plan=plan)
    assert kinds(job) == [
        "scStart", "dataCheckOk", "execStart", "transferStart", "execFailed", "scCompleted",
    ]
    assert job.outcome.kind is OutcomeKind.EXEC_FAILED
    assert "transfer failed" in job.outcome.detail


def test_transfer_retry_success_still_completes():
    plan = FaultPlan.scripted(transfer=[False, True])
    job, _ = run(plan=plan)
    assert job.outcome.kind is OutcomeKind.SUCCESS


def test_every_created_vm_is_destroyed_on_every_terminal_path():
    plans = [
        FaultPlan.scripted(),
        FaultPlan.scripted(bootstrap_step=[False]),
        FaultPlan.scripted(task_step=[False]),
        FaultPlan.scripted(transfer=[False, False]),
    ]
    for plan in plans:
        job, env = run(plan=plan)
        for vm_id in env.provider.created_vm_ids():
            assert env.provider.get_vm(vm_id).lifecycle is VmLifecycle.DESTROYED, kinds(job)


def test_observed_duration_stays_within_the_worst_case_bound():
    job, env = run()
    bound = wcet_bound(demo_definition(), REQ, CostModel())
    assert job.event_log.last_time() <= bound
    assert env.clock.now <= bound


def test_unit_cost_timeline_of_a_clean_run():
    job, _ = run()
    by_kind = {e.signal.kind.value: e.virtual_time for e in job.event_log.entries}
    assert by_kind["scStart"] == 0
    assert by_kind["dataCheckOk"] == 1
    assert by_kind["execStart"] == 3
    # 4 contraction iterations at unit cost: transfer starts once converged
    assert by_kind["transferStart"] == 7


# ---------------------------------------------------------------------------
# replay


def test_replay_is_byte_identical():
    plan = FaultPlan.seeded(99, p_create_fail=0.2, p_task_fail=0.1, p_vm_loss=0.1)
    log1 = replay(demo_definition(), dict(FIXED_INPUT), REQ, plan)
    log2 = replay(demo_definition(), dict(FIXED_INPUT), REQ, plan)
    assert log1.to_jsonl() == log2.to_jsonl()


def test_scripted_equivalent_of_a_seeded_failure_matches_signal_kinds():
    # p_create_fail=1 means every creation fails, same as an all-fail script
    seeded = replay(demo_definition(), dict(FIXED_INPUT), REQ, FaultPlan.seeded(5, p_create_fail=1.0))
    scripted = replay(
        demo_definition(), dict(FIXED_INPUT), REQ, FaultPlan.scripted(create_vm=[False] * 9)
    )
    assert [e.signal.kind for e in seeded.entries] == [e.signal.kind for e in scripted.entries]


def test_different_seeds_can_diverge():
    plans = [FaultPlan.seeded(s, p_task_fail=0.5) for s in range(20)]
    logs = {replay(demo_definition(), dict(FIXED_INPUT), REQ, p).to_jsonl() for p in plans}
    assert len(logs) > 1


# SHA-256 of the concatenated event logs of the 200 seeded demo jobs below.
# What a stored seed replays to is part of the contract, so a change to
# which faults a seed draws, or in what order, must update this digest in
# place and say so in CHANGES.md.
SEEDED_DEMO_LOGS_SHA256 = "cc59ef4c32518f364c7566ffb026c319a6ef00280305f8a5ca409fd96963be9f"


def test_seeded_fault_draws_are_pinned(tmp_path):
    defn = SCDefinition.from_dict(json.loads((SAMPLES / "demo_connector.json").read_text()))
    data = json.loads((SAMPLES / "demo_input.json").read_text())
    plan = json.loads((SAMPLES / "seeded_faults.json").read_text())
    rates = {k: v for k, v in plan.items() if k.startswith("p_")}
    logs, outcomes = [], Counter()
    for seed in range(200):
        env = Env(SimulatedProvider(FaultPlan.seeded(seed, **rates)))
        job = start_job(defn, data, UserReqVM(4, 2), destination=str(tmp_path), job_id=f"job-{seed:04d}")
        job = run_to_completion(job, env)
        logs.append(job.event_log.to_jsonl())
        outcomes[job.outcome.kind] += 1
    # the pinned logs cover every fault path, not only clean runs
    assert set(outcomes) == {OutcomeKind.SUCCESS, OutcomeKind.VM_FAILED, OutcomeKind.EXEC_FAILED}
    assert hashlib.sha256("".join(logs).encode()).hexdigest() == SEEDED_DEMO_LOGS_SHA256


# ---------------------------------------------------------------------------
# protocol audit on synthetic logs


def test_protocol_audit_flags_a_log_not_opening_with_sc_start():
    from smartconn.core_model import EventLog, Signal, append_event

    log = append_event(EventLog(), 0, Signal(SignalKind.DATA_CHECK_OK), "DataAnalysis")
    assert "log must open with scStart" in verify_signal_protocol(log)


def test_protocol_audit_flags_signals_after_data_check_fail():
    from smartconn.core_model import Event, EventLog, Signal

    log = EventLog(
        (
            Event(0, Signal(SignalKind.SC_START), "user"),
            Event(1, Signal(SignalKind.DATA_CHECK_FAIL), "DataAnalysis"),
            Event(2, Signal(SignalKind.SC_COMPLETED), "EnvCleanUp"),
        )
    )
    problems = verify_signal_protocol(log)
    assert any("dataCheckFail" in p for p in problems)


def test_protocol_audit_requires_completion_after_a_failure_signal():
    from smartconn.core_model import Event, EventLog, Signal

    log = EventLog(
        (
            Event(0, Signal(SignalKind.SC_START), "user"),
            Event(1, Signal(SignalKind.DATA_CHECK_OK), "DataAnalysis"),
            Event(2, Signal(SignalKind.VM_FAIL), "EnvSetUpVM"),
        )
    )
    problems = verify_signal_protocol(log)
    assert any("scCompleted" in p for p in problems)
