import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartconn.cloud_sim import FaultPlan, SimulatedProvider, VmLifecycle
from smartconn.core_model import ExecParamVM, RetryStrategy, UserReqVM
from smartconn.vm_env import (
    AllocationVerdict,
    acquire_vms,
    bootstrap,
    check_allocation,
    cleanup,
)

from support import RecordingProvider


def provider_with(create_vm=(), **kwargs):
    return SimulatedProvider(FaultPlan.scripted(create_vm=list(create_vm), **kwargs))


# ---------------------------------------------------------------------------
# check_allocation


@pytest.mark.parametrize(
    "ideal,minimal,count,ok",
    [
        (3, 2, 3, True),
        (3, 2, 2, True),
        (3, 2, 1, False),
        (3, 2, 4, False),
        (1, 1, 0, False),
        (1, 1, 1, True),
    ],
)
def test_check_allocation_examples(ideal, minimal, count, ok):
    assert check_allocation(ideal, minimal, count) is ok


def test_check_allocation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        check_allocation(2, 3, 2)  # minimal above ideal
    with pytest.raises(ValueError):
        check_allocation(2, 0, 1)  # minimal below 1
    with pytest.raises(ValueError):
        check_allocation(2, 1, -1)


def test_check_allocation_exhaustive_small_ranges():
    for ideal in range(1, 7):
        for minimal in range(1, ideal + 1):
            for count in range(0, ideal + 3):
                assert check_allocation(ideal, minimal, count) is (minimal <= count <= ideal)


# ---------------------------------------------------------------------------
# acquisition


def test_all_ok_initial_block_is_enough_and_uses_no_retries():
    p = provider_with()
    result = acquire_vms(p, UserReqVM(3, 2), ExecParamVM(retry_limit=2))
    assert result.generated_vm == ("vm-0", "vm-1", "vm-2")
    assert result.attempts_used == 0
    assert result.verdict is AllocationVerdict.SUFFICIENT


def test_shortfall_to_ideal_is_not_chased_once_minimal_is_met():
    # ideal 3, minimal 2: one failure in the initial block leaves 2, done.
    p = provider_with(create_vm=[True, False, True])
    result = acquire_vms(p, UserReqVM(3, 2), ExecParamVM(retry_limit=5))
    assert result.generated_vm == ("vm-0", "vm-1")
    assert result.attempts_used == 0
    assert result.verdict is AllocationVerdict.SUFFICIENT
    assert p.create_call_count == 3


def test_block_retry_requests_the_shortfall_in_one_round():
    # initial block all fails, one Block retry round of size minimal=2 succeeds.
    p = provider_with(create_vm=[False, False, False, True, True])
    param = ExecParamVM(retry_limit=1, retry_strategy=RetryStrategy.BLOCK)
    result = acquire_vms(p, UserReqVM(3, 2), param)
    assert result.generated_vm == ("vm-0", "vm-1")
    assert result.attempts_used == 1
    assert result.verdict is AllocationVerdict.SUFFICIENT
    assert p.create_call_count == 5


def test_single_retry_adds_one_vm_per_round():
    p = provider_with(create_vm=[False, False, False, True, True])
    param = ExecParamVM(retry_limit=3, retry_strategy=RetryStrategy.SINGLE)
    result = acquire_vms(p, UserReqVM(3, 2), param)
    assert result.generated_vm == ("vm-0", "vm-1")
    assert result.attempts_used == 2
    assert result.verdict is AllocationVerdict.SUFFICIENT
    assert p.create_call_count == 5


def test_retries_exhausted_reports_insufficient():
    p = provider_with(create_vm=[False] * 10)
    param = ExecParamVM(retry_limit=2, retry_strategy=RetryStrategy.SINGLE)
    result = acquire_vms(p, UserReqVM(3, 2), param)
    assert result.generated_vm == ()
    assert result.attempts_used == 2
    assert result.verdict is AllocationVerdict.INSUFFICIENT


def test_zero_retry_limit_means_one_shot():
    p = provider_with(create_vm=[False, True, False])
    result = acquire_vms(p, UserReqVM(3, 2), ExecParamVM(retry_limit=0))
    assert result.verdict is AllocationVerdict.INSUFFICIENT
    assert result.attempts_used == 0
    assert p.create_call_count == 3


@settings(max_examples=120)
@given(
    ideal=st.integers(min_value=1, max_value=5),
    # drawn as an offset so minimal <= ideal holds by construction
    minimal_offset=st.integers(min_value=0, max_value=4),
    retry_limit=st.integers(min_value=0, max_value=3),
    strategy=st.sampled_from(list(RetryStrategy)),
    outcomes=st.lists(st.booleans(), max_size=30),
)
def test_acquisition_budget_and_soundness(ideal, minimal_offset, retry_limit, strategy, outcomes):
    minimal = max(1, ideal - minimal_offset)
    p = provider_with(create_vm=outcomes)
    req = UserReqVM(ideal, minimal)
    result = acquire_vms(p, req, ExecParamVM(retry_limit=retry_limit, retry_strategy=strategy))

    # pool size never exceeds the ideal
    assert len(result.generated_vm) <= ideal
    # verdict agrees with the allocation check
    assert (result.verdict is AllocationVerdict.SUFFICIENT) == check_allocation(
        ideal, minimal, len(result.generated_vm)
    )
    assert result.attempts_used <= retry_limit
    # creation budget: initial block plus bounded retry spend
    if strategy is RetryStrategy.BLOCK:
        assert p.create_call_count <= ideal + retry_limit * minimal
    else:
        assert p.create_call_count <= ideal + retry_limit
    # every granted VM really exists at the provider
    assert set(result.generated_vm) <= set(p.created_vm_ids())


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_runs_compiler_installs_then_base_steps():
    p = RecordingProvider(FaultPlan.scripted())
    vms = acquire_vms(p, UserReqVM(1, 1), ExecParamVM()).generated_vm
    param = ExecParamVM(compilers=("gcc", "mpicc"), bootstrap_step_count=2)
    result = bootstrap(p, vms, param, now=2)
    assert result.all_ready
    commands = [s.command for _, s, _ in p.remote_calls]
    assert commands == ["install gcc", "install mpicc", "base-setup 1", "base-setup 2"]
    assert p.get_vm("vm-0").lifecycle is VmLifecycle.BOOTSTRAPPED


def test_bootstrap_step_failure_names_the_step():
    p = provider_with(bootstrap_step=[True, False])
    vms = acquire_vms(p, UserReqVM(1, 1), ExecParamVM()).generated_vm
    result = bootstrap(p, vms, ExecParamVM(bootstrap_step_count=2), now=2)
    assert not result.all_ready
    assert result.failed_vm == "vm-0"
    assert result.reason == "step 2 (base-setup 2) failed"


def test_bootstrap_stops_at_first_failing_vm():
    p = RecordingProvider(FaultPlan.scripted(bootstrap_step=[False]))
    vms = acquire_vms(p, UserReqVM(2, 2), ExecParamVM()).generated_vm
    result = bootstrap(p, vms, ExecParamVM(), now=2)
    assert not result.all_ready and result.failed_vm == "vm-0"
    # the second VM was never touched
    touched = {vm for vm, _, _ in p.remote_calls}
    assert touched == {"vm-0"}


def test_bootstrap_unreachable_vm_fails_without_consuming_outcomes():
    from smartconn.cloud_sim import ReachabilityLoss

    p = SimulatedProvider(
        FaultPlan.scripted(bootstrap_step=[False], reachability=[ReachabilityLoss("vm-0", 0)])
    )
    vms = acquire_vms(p, UserReqVM(1, 1), ExecParamVM()).generated_vm
    result = bootstrap(p, vms, ExecParamVM(), now=2)
    assert not result.all_ready
    assert result.reason == "vm unreachable at step 1"


# ---------------------------------------------------------------------------
# cleanup


def test_cleanup_destroys_the_whole_pool_once():
    p = provider_with()
    vms = acquire_vms(p, UserReqVM(3, 3), ExecParamVM()).generated_vm
    report = cleanup(p, vms + (vms[0],), now=9)  # duplicate entry is harmless
    assert report.destroyed == vms
    assert report.time == 9
    for vm_id in vms:
        assert p.get_vm(vm_id).lifecycle is VmLifecycle.DESTROYED
