"""Parameter sweeps: expand a sweep spec into bindings and launch one
isolated job per binding."""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, NamedTuple

from .core_model import InvalidDefinition, Scalar, SCDefinition, SweepSpec, UserReqVM, validate_definition
from .sc_engine import Env, Job, run_to_completion, start_job


class Binding(NamedTuple):
    binding_id: str
    values: Mapping[str, Scalar]


def expand_sweep(spec: SweepSpec) -> list[Binding]:
    """Cartesian product of the sweep variables, ordered lexicographically
    by variable name and then by value-list position. No variables means
    one empty binding (run the base input once)."""
    names = sorted(spec.variables)
    value_lists = [spec.variables[n] for n in names]
    bindings = []
    for i, combo in enumerate(itertools.product(*value_lists)):
        bindings.append(Binding(f"binding-{i:04d}", dict(zip(names, combo))))
    return bindings


def launch_sweep(
    defn: SCDefinition,
    base_input: Mapping[str, Scalar],
    req: UserReqVM,
    env_factory: Callable[[int, Binding], Env],
    destination: str | None = None,
) -> list[Job]:
    """Run one job per binding, sequentially in binding order.

    Each job gets its own Env from env_factory (own provider, own clock,
    own fault-plan cursors), so bindings cannot interfere; a failing
    binding just completes with its failure outcome. The definition is
    validated once, before anything launches.
    """
    violations = validate_definition(defn)
    if violations:
        raise InvalidDefinition(violations)
    jobs: list[Job] = []
    for i, binding in enumerate(expand_sweep(defn.sweep)):
        env = env_factory(i, binding)
        data_input = {**base_input, **binding.values}
        job_id = env.store.allocate_job_id() if env.store is not None else None
        job = start_job(defn, data_input, req, destination=destination, job_id=job_id)
        jobs.append(run_to_completion(job, env))
    return jobs
