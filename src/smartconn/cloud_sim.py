"""Deterministic in-memory IaaS provider driven by a fault plan.

The simulator answers create/destroy/reachability/remote-step requests
without touching a real cloud. Failures come exclusively from a FaultPlan:
either scripted queues of outcomes consumed in call order, or a seeded
PRNG (random.Random, the stdlib Mersenne Twister) drawing per-call
failures. Identical plans plus identical call sequences give identical
results, which is what makes whole-job replay byte-exact.

SimulatedProvider is the only provider. Its requests and answers are
named tuples (see core_model); FaultPlan is a frozen dataclass because it
validates on construction, and VmRecord a plain one because the provider
updates its lifecycle in place.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .core_model import SmartConnError

KIND_CREATE = "create_vm"
KIND_BOOTSTRAP = "bootstrap_step"
KIND_TASK = "task_step"
KIND_TRANSFER = "transfer"
_QUEUE_KINDS = (KIND_CREATE, KIND_BOOTSTRAP, KIND_TASK, KIND_TRANSFER)


class ProviderError(SmartConnError):
    """Misuse of the provider interface."""


class UnknownVmError(ProviderError):
    """The vm_id was never issued by this provider."""


class Clock:
    """Virtual time as a monotone integer tick counter."""

    def __init__(self, now: int = 0):
        if now < 0:
            raise ValueError("clock cannot start before tick 0")
        self.now = now

    def advance(self, ticks: int) -> int:
        if ticks < 0:
            raise ValueError("clock cannot move backwards")
        self.now += ticks
        return self.now


# ---------------------------------------------------------------------------
# fault plans


class ReachabilityLoss(NamedTuple):
    """Permanent loss of one VM from a given tick onwards."""

    vm_id: str
    from_tick: int


def _parse_outcomes(values: Any, kind: str) -> tuple[bool, ...]:
    out = []
    for v in values:
        if v not in ("ok", "fail"):
            raise ValueError(f"fault plan {kind}: outcomes must be 'ok' or 'fail', got {v!r}")
        out.append(v == "ok")
    return tuple(out)


@dataclass(frozen=True)
class FaultPlan:
    """Where failures come from, for one provider instance.

    Scripted mode: per-kind outcome queues (create_vm, bootstrap_step,
    task_step, transfer; True = ok) plus a list of reachability losses.
    Exhausted or absent queues default to ok.

    Seeded mode: a 64-bit seed plus per-kind failure probabilities; each
    consumed operation draws one Bernoulli outcome, and each reachability
    probe of a still-healthy VM draws a permanent-loss event with
    probability p_vm_loss.
    """

    mode: str = "scripted"
    create_vm: tuple[bool, ...] = ()
    bootstrap_step: tuple[bool, ...] = ()
    task_step: tuple[bool, ...] = ()
    transfer: tuple[bool, ...] = ()
    reachability: tuple[ReachabilityLoss, ...] = ()
    seed: int | None = None
    p_create_fail: float = 0.0
    p_bootstrap_fail: float = 0.0
    p_task_fail: float = 0.0
    p_transfer_fail: float = 0.0
    p_vm_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("scripted", "seeded"):
            raise ValueError(f"fault plan mode must be 'scripted' or 'seeded', got {self.mode!r}")
        if self.mode == "seeded" and self.seed is None:
            raise ValueError("seeded fault plan requires a seed")
        for name in ("p_create_fail", "p_bootstrap_fail", "p_task_fail", "p_transfer_fail", "p_vm_loss"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @classmethod
    def scripted(
        cls,
        create_vm: tuple[bool, ...] | list[bool] = (),
        bootstrap_step: tuple[bool, ...] | list[bool] = (),
        task_step: tuple[bool, ...] | list[bool] = (),
        transfer: tuple[bool, ...] | list[bool] = (),
        reachability: tuple[ReachabilityLoss, ...] | list[ReachabilityLoss] = (),
    ) -> "FaultPlan":
        return cls(
            "scripted",
            tuple(create_vm),
            tuple(bootstrap_step),
            tuple(task_step),
            tuple(transfer),
            tuple(reachability),
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        p_create_fail: float = 0.0,
        p_bootstrap_fail: float = 0.0,
        p_task_fail: float = 0.0,
        p_transfer_fail: float = 0.0,
        p_vm_loss: float = 0.0,
    ) -> "FaultPlan":
        return cls(
            "seeded",
            seed=seed,
            p_create_fail=p_create_fail,
            p_bootstrap_fail=p_bootstrap_fail,
            p_task_fail=p_task_fail,
            p_transfer_fail=p_transfer_fail,
            p_vm_loss=p_vm_loss,
        )

    def to_dict(self) -> dict[str, Any]:
        if self.mode == "seeded":
            return {
                "mode": "seeded",
                "seed": self.seed,
                "p_create_fail": self.p_create_fail,
                "p_bootstrap_fail": self.p_bootstrap_fail,
                "p_task_fail": self.p_task_fail,
                "p_transfer_fail": self.p_transfer_fail,
                "p_vm_loss": self.p_vm_loss,
            }
        def enc(q: tuple[bool, ...]) -> list[str]:
            return ["ok" if ok else "fail" for ok in q]
        return {
            "mode": "scripted",
            "create_vm": enc(self.create_vm),
            "bootstrap_step": enc(self.bootstrap_step),
            "task_step": enc(self.task_step),
            "transfer": enc(self.transfer),
            "reachability": [{"vm": r.vm_id, "from": r.from_tick} for r in self.reachability],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultPlan":
        mode = d.get("mode", "scripted")
        if mode == "seeded":
            return cls.seeded(
                int(d["seed"]),
                float(d.get("p_create_fail", 0.0)),
                float(d.get("p_bootstrap_fail", 0.0)),
                float(d.get("p_task_fail", 0.0)),
                float(d.get("p_transfer_fail", 0.0)),
                float(d.get("p_vm_loss", 0.0)),
            )
        losses = tuple(
            ReachabilityLoss(r["vm"], int(r["from"])) for r in d.get("reachability", ())
        )
        return cls.scripted(
            _parse_outcomes(d.get(KIND_CREATE, ()), KIND_CREATE),
            _parse_outcomes(d.get(KIND_BOOTSTRAP, ()), KIND_BOOTSTRAP),
            _parse_outcomes(d.get(KIND_TASK, ()), KIND_TASK),
            _parse_outcomes(d.get(KIND_TRANSFER, ()), KIND_TRANSFER),
            losses,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# VM records and step results


class VmLifecycle(Enum):
    CREATED = "Created"
    BOOTSTRAPPED = "Bootstrapped"
    UNREACHABLE = "Unreachable"
    DESTROYED = "Destroyed"


@dataclass
class VmRecord:
    vm_id: str
    lifecycle: VmLifecycle = VmLifecycle.CREATED


class CreationFailure(NamedTuple):
    """A create call the fault plan refused; position is the consumed
    plan index, for diagnostics."""

    position: int


class StepStatus(Enum):
    OK = "Ok"
    VM_UNREACHABLE = "VmUnreachable"
    STEP_FAILED = "StepFailed"


class StepResult(NamedTuple):
    status: StepStatus
    output: str | None = None
    plan_position: int | None = None


_UNREACHABLE = StepResult(StepStatus.VM_UNREACHABLE)


class RemoteStep(NamedTuple):
    """One remote command: its plan queue kind plus trace metadata."""

    kind: str
    command: str
    process: str | None = None
    task: int | None = None
    iteration: int | None = None


# ---------------------------------------------------------------------------
# the provider


class SimulatedProvider:
    """Fault-plan-driven provider. See module docstring for the model.

    Diagnostics: `create_call_count` counts create requests (for
    retry-budget checks). The provider keeps no log of its calls; a test
    that needs one wraps the methods in a subclass.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed) if plan.mode == "seeded" else None
        self._p_fail = {
            KIND_CREATE: plan.p_create_fail,
            KIND_BOOTSTRAP: plan.p_bootstrap_fail,
            KIND_TASK: plan.p_task_fail,
            KIND_TRANSFER: plan.p_transfer_fail,
        }
        self._cursors: dict[str, int] = {k: 0 for k in _QUEUE_KINDS}
        self._vms: dict[str, VmRecord] = {}
        self._created_order: list[str] = []
        self._lost_at: dict[str, int] = {}

    # -- plan consumption

    def _draw(self, kind: str) -> tuple[bool, int]:
        pos = self._cursors[kind]
        self._cursors[kind] = pos + 1
        if self._rng is not None:
            return self._rng.random() >= self._p_fail[kind], pos
        queue = getattr(self.plan, kind)
        ok = queue[pos] if pos < len(queue) else True
        return ok, pos

    # -- interface

    @property
    def create_call_count(self) -> int:
        return self._cursors[KIND_CREATE]

    def created_vm_ids(self) -> tuple[str, ...]:
        return tuple(self._created_order)

    def get_vm(self, vm_id: str) -> VmRecord:
        try:
            return self._vms[vm_id]
        except KeyError:
            raise UnknownVmError(f"unknown vm {vm_id!r}") from None

    def create_vm(self) -> VmRecord | CreationFailure:
        """Request one VM. Consumes one create outcome from the plan."""
        ok, pos = self._draw(KIND_CREATE)
        if not ok:
            return CreationFailure(pos)
        # ids count successful grants only, and are never reused
        vm = VmRecord(f"vm-{len(self._created_order)}")
        self._vms[vm.vm_id] = vm
        self._created_order.append(vm.vm_id)
        return vm

    def create_vms_block(self, n: int) -> list[VmRecord | CreationFailure]:
        """Request n VMs as one block: n consecutive create outcomes,
        partial success possible."""
        if n < 0:
            raise ValueError("block size must be >= 0")
        return [self.create_vm() for _ in range(n)]

    def destroy_vm(self, vm_id: str) -> VmRecord:
        """Destroy a VM. Always succeeds; idempotent on destroyed VMs."""
        vm = self.get_vm(vm_id)
        vm.lifecycle = VmLifecycle.DESTROYED
        return vm

    def is_reachable(self, vm_id: str, now: int) -> bool:
        """Whether the VM answers at tick `now`. Loss is permanent."""
        vm = self.get_vm(vm_id)
        lost_tick = self._lost_at.get(vm_id)
        if lost_tick is None and self._rng is None:
            for loss in self.plan.reachability:
                if loss.vm_id == vm_id and loss.from_tick <= now:
                    lost_tick = loss.from_tick
                    break
        elif lost_tick is None and self._rng is not None:
            if self.plan.p_vm_loss > 0.0 and self._rng.random() < self.plan.p_vm_loss:
                lost_tick = now
        if lost_tick is None or lost_tick > now:
            return True
        self._lost_at[vm_id] = lost_tick
        if vm.lifecycle is not VmLifecycle.DESTROYED:
            vm.lifecycle = VmLifecycle.UNREACHABLE
        return False

    def run_remote(self, vm_id: str, step: RemoteStep, now: int) -> StepResult:
        """Run one step on a VM. Unreachable VMs answer VmUnreachable
        without consuming a plan outcome."""
        vm = self.get_vm(vm_id)
        if vm.lifecycle is VmLifecycle.DESTROYED:
            raise ProviderError(f"vm {vm_id!r} is destroyed")
        if step.kind not in (KIND_BOOTSTRAP, KIND_TASK):
            raise ProviderError(f"unknown remote step kind {step.kind!r}")
        if not self.is_reachable(vm_id, now):
            return _UNREACHABLE
        ok, pos = self._draw(step.kind)
        if ok:
            return StepResult(StepStatus.OK, output=step.command, plan_position=pos)
        return StepResult(StepStatus.STEP_FAILED, plan_position=pos)

    def next_transfer_outcome(self) -> tuple[bool, int]:
        """Consume one transfer outcome; returns (ok, plan position)."""
        return self._draw(KIND_TRANSFER)

    def mark_bootstrapped(self, vm_id: str) -> None:
        vm = self.get_vm(vm_id)
        if vm.lifecycle is VmLifecycle.CREATED:
            vm.lifecycle = VmLifecycle.BOOTSTRAPPED
