"""Environment setup and teardown: acquiring a VM pool, bootstrapping it,
and destroying it.

The acquisition policy: one block request for the ideal count up front. If
that already yields at least the minimal count, done, and the shortfall to
the ideal is never chased. Below the minimal count, up to retry_limit
retry rounds run, each a single plan-consuming attempt: Block mode asks
for the current shortfall to the minimum in one block, Single mode asks
for one VM. Rounds stop as soon as the minimum is reached.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .cloud_sim import KIND_BOOTSTRAP, RemoteStep, SimulatedProvider, StepStatus, VmRecord
from .core_model import ExecParamVM, RetryStrategy, UserReqVM


class AllocationVerdict(Enum):
    SUFFICIENT = "Sufficient"
    INSUFFICIENT = "Insufficient"


def check_allocation(ideal: int, minimal: int, generated_count: int) -> bool:
    """Whether a generated pool size satisfies minimal <= count <= ideal."""
    if not (1 <= minimal <= ideal):
        raise ValueError(f"invalid request: need 1 <= minimal <= ideal, got {ideal}:{minimal}")
    if generated_count < 0:
        raise ValueError(f"generated_count must be >= 0, got {generated_count}")
    return minimal <= generated_count <= ideal


class AcquisitionResult(NamedTuple):
    generated_vm: tuple[str, ...]
    attempts_used: int  # retry rounds only, the initial block is not counted
    verdict: AllocationVerdict

    def to_payload(self) -> dict:
        return {
            "generated": list(self.generated_vm),
            "attempts_used": self.attempts_used,
            "verdict": self.verdict.value,
        }


def acquire_vms(provider: SimulatedProvider, req: UserReqVM, param: ExecParamVM, now: int = 0) -> AcquisitionResult:
    """Build a VM pool per the policy in the module docstring.

    The result's verdict is Sufficient exactly when the pool size passes
    check_allocation; the pool never exceeds req.ideal.
    """
    pool: list[str] = []

    def grant(results: list) -> None:
        for r in results:
            if isinstance(r, VmRecord):
                pool.append(r.vm_id)

    grant(provider.create_vms_block(req.ideal))
    attempts = 0
    while len(pool) < req.minimal and attempts < param.retry_limit:
        attempts += 1
        if param.retry_strategy is RetryStrategy.BLOCK:
            grant(provider.create_vms_block(req.minimal - len(pool)))
        else:
            grant([provider.create_vm()])
    verdict = (
        AllocationVerdict.SUFFICIENT
        if check_allocation(req.ideal, req.minimal, len(pool))
        else AllocationVerdict.INSUFFICIENT
    )
    return AcquisitionResult(tuple(pool), attempts, verdict)


class BootstrapResult(NamedTuple):
    all_ready: bool
    failed_vm: str | None = None
    reason: str | None = None

    def to_payload(self) -> dict:
        return {"all_ready": self.all_ready, "failed_vm": self.failed_vm, "reason": self.reason}


def bootstrap(provider: SimulatedProvider, vms: tuple[str, ...], param: ExecParamVM, now: int) -> BootstrapResult:
    """Provision every VM in order: one install step per listed compiler,
    then bootstrap_step_count base steps. The first failing step fails the
    whole setup; VMs already provisioned stay Bootstrapped but the caller
    is expected to tear the pool down.
    """
    steps = [RemoteStep(KIND_BOOTSTRAP, f"install {c}") for c in param.compilers]
    steps += [RemoteStep(KIND_BOOTSTRAP, f"base-setup {i + 1}") for i in range(param.bootstrap_step_count)]
    for vm_id in vms:
        for step_no, step in enumerate(steps, start=1):
            result = provider.run_remote(vm_id, step, now)
            if result.status is StepStatus.VM_UNREACHABLE:
                return BootstrapResult(False, vm_id, f"vm unreachable at step {step_no}")
            if result.status is StepStatus.STEP_FAILED:
                return BootstrapResult(False, vm_id, f"step {step_no} ({step.command}) failed")
        provider.mark_bootstrapped(vm_id)
    return BootstrapResult(True)


class CleanupReport(NamedTuple):
    destroyed: tuple[str, ...]
    time: int


def cleanup(provider: SimulatedProvider, vms: tuple[str, ...], now: int) -> CleanupReport:
    """Destroy every listed VM. Destruction always succeeds and repeating
    it is harmless, so the report simply lists everything now destroyed."""
    destroyed: list[str] = []
    for vm_id in dict.fromkeys(vms):
        provider.destroy_vm(vm_id)
        destroyed.append(vm_id)
    return CleanupReport(tuple(destroyed), now)
