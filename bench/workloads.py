"""The three benchmark workloads: input generation, one timed round each,
and the correctness checks that run after the timed region.

A round is one fixed unit of work, so its numbers do not depend on how
fast the machine is: store_fill fills one fresh store with
STORE_FILL_JOBS jobs through the in-process CLI and exports them,
wide_job runs the one wide job into a fresh store and exports it, and
fault_fleet runs FLEET_JOBS store-less jobs under seeded fault plans.
Every round of a run gets the same inputs, so its counts must repeat.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
FIXED_CONNECTOR = BENCH_DIR / "fixed_connector.json"
WIDE_CONTRACTION = BENCH_DIR / "wide_contraction.json"

# jobs per fresh store: enough for the growth to show in the p90 tail, few
# enough that a 40-s run repeats every job position about 30 times
STORE_FILL_JOBS = 120
FLEET_JOBS = 2000
WIDE_PROCESSES, WIDE_ITERATIONS, WIDE_FACTOR, WIDE_X0 = 300, 100, 0.999, 8.0
FLEET_X0 = 8.0
# the rates of samples/seeded_faults.json
FAULT_RATES = {
    "p_create_fail": 0.1,
    "p_bootstrap_fail": 0.05,
    "p_task_fail": 0.05,
    "p_transfer_fail": 0.1,
    "p_vm_loss": 0.02,
}
# outcomes the fault plan is meant to cause; they are results, not failures
FAULT_OUTCOMES = ("Success", "VmFailed", "ExecFailed")


@dataclass
class Round:
    job_ns: list[int]
    loop_s: float
    export_s: float | None
    jobs: int
    failed: int
    records: int  # output records landed, verified against their receipt
    counts: dict[str, int]  # must repeat exactly in every round of a run
    store_dir: Path | None
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# set-up


def import_fresh() -> dict[str, Any]:
    """Import smartconn from scratch, as a new process would, and return
    its modules by name."""
    for name in [m for m in sys.modules if m == "smartconn" or m.startswith("smartconn.")]:
        del sys.modules[name]
    importlib.import_module("smartconn")
    importlib.import_module("smartconn.cli")
    return {m: mod for m, mod in sys.modules.items() if m == "smartconn" or m.startswith("smartconn.")}


@dataclass
class Prepared:
    mods: dict[str, Any]
    definition: Path
    inputs: list[Path]
    x0s: list[float]


def _write_json(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def prepare(workload: str, seed: int, setup_dir: Path) -> Prepared:
    """Everything before the first job call: import, the generated
    definition and inputs, and (for the store workloads) a store."""
    mods = import_fresh()
    setup_dir.mkdir(parents=True)
    definition = setup_dir / "definition.json"
    if workload == "wide_job":
        definition.write_text(WIDE_CONTRACTION.read_text())
        x0s = [WIDE_X0]
    elif workload == "fault_fleet":
        definition.write_text(FIXED_CONNECTOR.read_text())
        x0s = [FLEET_X0]
    else:
        definition.write_text(FIXED_CONNECTOR.read_text())
        rng = random.Random(seed)
        # x0 < 6 converges in task 1's first iteration, 6 <= x0 < 12 in its second
        x0s = [rng.uniform(2.0, 10.0) for _ in range(STORE_FILL_JOBS)]
    inputs = []
    for i, x0 in enumerate(x0s):
        path = setup_dir / f"input-{i:04d}.json"
        _write_json(path, {"x0": x0})
        inputs.append(path)
    if workload != "fault_fleet":
        mods["smartconn.store_transfer"].JobStore(setup_dir / "store")
    return Prepared(mods, definition, inputs, x0s)


# ---------------------------------------------------------------------------
# closed forms the outputs are checked against


def fixed_expected(x0: float, n_processes: int) -> dict[tuple[str, int], float]:
    """Task 1 halves x0 until it drops below 3.0 (at most 2 iterations);
    task 2 adds up its single field, x0, once."""
    iterations = 1 if x0 * 0.5 < 3.0 else 2
    expected = {}
    for j in range(1, n_processes + 1):
        for i in range(1, iterations + 1):
            expected[(f"t1p{j}", i)] = x0 * 0.5 ** i
        expected[(f"t2p{j}", 1)] = x0
    return expected


def wide_expected() -> dict[tuple[str, int], float]:
    return {
        (f"t1p{j}", i): WIDE_X0 * WIDE_FACTOR ** i
        for j in range(1, WIDE_PROCESSES + 1)
        for i in range(1, WIDE_ITERATIONS + 1)
    }


def compare(found: list[tuple[str, int, float]], expected: dict, complete: bool, what: str) -> list[str]:
    problems = []
    seen = set()
    for process, iteration, value in found:
        key = (process, iteration)
        if key in seen:
            problems.append(f"{what}: duplicate record {key}")
        seen.add(key)
        if key not in expected:
            problems.append(f"{what}: unexpected record {key}")
        elif not math.isclose(value, expected[key], rel_tol=1e-12):
            problems.append(f"{what}: {key} value {value!r} != {expected[key]!r}")
    if complete and seen != set(expected):
        problems.append(f"{what}: {len(expected) - len(seen & set(expected))} expected records missing")
    return problems


def landed_records(mods, receipt) -> tuple[list[tuple[str, int, float]], list[str]]:
    """The output records in a receipt's files, after checking every file
    against its manifest entry. Record files hold one JSON record per line."""
    problems = mods["smartconn.store_transfer"].verify_receipt(receipt)
    records = []
    root = Path(receipt.destination_path)
    for entry in receipt.files:
        if not entry.path.endswith((".json", ".jsonl")):
            continue
        for line in (root / entry.path).read_text().splitlines():
            rec = json.loads(line)
            records.append((rec["process"], int(rec["iteration"]), float(rec["metrics"]["value"])))
    return records, problems


def protocol_problems(mods, job) -> list[str]:
    return mods["smartconn.sc_engine"].verify_signal_protocol(job.event_log)


def transfer_start(job) -> dict:
    for e in job.event_log.entries:
        if e.signal.kind.value == "transferStart":
            return dict(e.signal.payload or {})
    return {}


def check_store(mods, store, job_ids: list[str], expected: dict[str, dict], csv_text: str) -> tuple[dict, int]:
    """Check a store's jobs, datasets, landed files and exported CSV.
    Returns problems by job id (None for the whole store) and the number
    of records landed."""
    st = mods["smartconn.store_transfer"]
    problems: dict[str | None, list[str]] = {}
    landed = 0

    def note(job_id, items):
        if items:
            problems.setdefault(job_id, []).extend(items)

    datasets = store.load_curation()
    per_job = Counter(d.job_id for d in datasets)
    if set(per_job) != set(job_ids):
        note(None, [f"curated jobs differ from stored jobs: {sorted(set(per_job) ^ set(job_ids))[:5]}"])
    by_job = {d.job_id: d for d in datasets}
    for job_id in job_ids:
        job = store.load_job(job_id)
        note(job_id, protocol_problems(mods, job))
        if job.outcome is None or job.outcome.kind.value != "Success":
            note(job_id, [f"{job_id}: outcome {job.outcome} on a fault-free run"])
            continue
        if per_job[job_id] != 1:
            note(job_id, [f"{job_id}: curated {per_job[job_id]} times"])
        if job_id not in by_job:
            continue
        d = by_job[job_id]
        receipt = st.TransferReceipt(str(store.transfers_dir / job_id), d.files, d.created_at)
        records, bad = landed_records(mods, receipt)
        note(job_id, bad)
        note(job_id, compare(records, expected[job_id], True, f"{job_id} transfer"))
        landed += len(records)

    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["job_id", "process", "iteration", "value"]:
        note(None, [f"export header {rows[:1]}"])
    else:
        found: dict[str, list] = {j: [] for j in job_ids}
        for row in rows[1:]:
            if row[0] not in found:
                note(None, [f"export row for unknown job {row[0]!r}"])
                continue
            found[row[0]].append((row[1], int(row[2]), float(row[3])))
        for job_id in job_ids:
            note(job_id, compare(found[job_id], expected[job_id], True, f"{job_id} export"))
    return problems, landed


def _failed_jobs(problems: dict, jobs: int) -> int:
    if None in problems:
        return jobs
    return len(problems)


def _flatten(problems: dict) -> list[str]:
    return [p for items in problems.values() for p in items]


# ---------------------------------------------------------------------------
# rounds


def store_fill_round(prep: Prepared, round_dir: Path, tracer) -> Round:
    mods = prep.mods
    cli = mods["smartconn.cli"]
    st = mods["smartconn.store_transfer"]
    store_dir = round_dir / "store"
    store = st.JobStore(store_dir)
    os.environ["SC_STORE"] = str(store_dir)
    base = ["job", "create", "--def", str(prep.definition), "--vms", "3:2"]
    out = io.StringIO()
    job_ns, codes = [], []
    with contextlib.redirect_stdout(out):
        tracer.active = True
        loop_start = time.perf_counter_ns()
        for path in prep.inputs:
            start = time.perf_counter_ns()
            codes.append(cli.main(base + ["--input", str(path)]))
            job_ns.append(time.perf_counter_ns() - start)
        loop_ns = time.perf_counter_ns() - loop_start
        tracer.active = False
    lines = out.getvalue().splitlines()
    job_ids = [line.split()[0] for line in lines]
    tracer.active = True
    start = time.perf_counter_ns()
    csv_text = st.export_plot_data(store, job_ids, ["value"])
    export_ns = time.perf_counter_ns() - start
    tracer.active = False

    problems: dict = {}
    if codes != [0] * len(prep.inputs) or len(job_ids) != len(prep.inputs):
        problems[None] = [f"job create exit codes {Counter(codes)}, {len(job_ids)} jobs printed"]
    for line in lines:
        if "state=Completed" not in line:
            problems.setdefault(line.split()[0], []).append(f"cli printed {line!r}")
    expected = {job_id: fixed_expected(x0, 3) for job_id, x0 in zip(job_ids, prep.x0s)}
    found, landed = check_store(mods, store, job_ids, expected, csv_text)
    for k, v in found.items():
        problems.setdefault(k, []).extend(v)
    counts = {
        "jobs": len(job_ids),
        "records_landed": landed,
        "csv_rows": csv_text.count("\n") - 1,
        "datasets": len(store.load_curation()),
    }
    return Round(
        job_ns, loop_ns / 1e9, export_ns / 1e9, len(prep.inputs),
        _failed_jobs(problems, len(prep.inputs)), landed, counts, store_dir, _flatten(problems),
    )


def wide_job_round(prep: Prepared, round_dir: Path, tracer) -> Round:
    mods = prep.mods
    sm, st = mods["smartconn"], mods["smartconn.store_transfer"]
    defn = sm.SCDefinition.from_dict(json.loads(prep.definition.read_text()))
    data_input = json.loads(prep.inputs[0].read_text())
    store_dir = round_dir / "store"
    store = st.JobStore(store_dir)
    env = sm.Env(sm.SimulatedProvider(sm.FaultPlan.scripted()), sm.Clock(), store=store)
    tracer.active = True
    start = time.perf_counter_ns()
    job = sm.start_job(defn, data_input, sm.UserReqVM(8, 4), job_id=store.allocate_job_id())
    job = sm.run_to_completion(job, env)
    loop_ns = time.perf_counter_ns() - start
    del env
    start = time.perf_counter_ns()
    csv_text = st.export_plot_data(store, [job.job_id], ["value"])
    export_ns = time.perf_counter_ns() - start
    tracer.active = False

    found, landed = check_store(mods, store, [job.job_id], {job.job_id: wide_expected()}, csv_text)
    counts = {
        "jobs": 1,
        "records_landed": landed,
        "csv_rows": csv_text.count("\n") - 1,
        "datasets": len(store.load_curation()),
    }
    return Round(
        [loop_ns], loop_ns / 1e9, export_ns / 1e9, 1, _failed_jobs(found, 1), landed,
        counts, store_dir, _flatten(found),
    )


def fault_fleet_round(prep: Prepared, round_dir: Path, tracer, seed: int) -> Round:
    mods = prep.mods
    sm = mods["smartconn"]
    defn = sm.SCDefinition.from_dict(json.loads(prep.definition.read_text()))
    data_input = json.loads(prep.inputs[0].read_text())
    req = sm.UserReqVM(3, 2)
    destination = round_dir / "dest"
    destination.mkdir(parents=True)
    dest = str(destination)
    finished = []
    job_ns = []
    tracer.active = True
    loop_start = time.perf_counter_ns()
    for i in range(FLEET_JOBS):
        start = time.perf_counter_ns()
        env = sm.Env(sm.SimulatedProvider(sm.FaultPlan.seeded(seed + i, **FAULT_RATES)), sm.Clock())
        job = sm.start_job(defn, data_input, req, destination=dest, job_id=f"job-{i:05d}")
        job = sm.run_to_completion(job, env)
        job_ns.append(time.perf_counter_ns() - start)
        finished.append((job, env.receipts.get(job.job_id)))
    loop_ns = time.perf_counter_ns() - loop_start
    tracer.active = False

    problems: dict = {}
    outcomes: Counter[str] = Counter()
    landed = files = 0
    for job, receipt in finished:
        bad = protocol_problems(mods, job)
        kind = job.outcome.kind.value if job.outcome else None
        outcomes[kind] += 1
        if kind not in FAULT_OUTCOMES:
            bad.append(f"{job.job_id}: outcome {kind}")
        if kind == "Success":
            if receipt is None:
                bad.append(f"{job.job_id}: Success without a receipt")
            else:
                records, receipt_bad = landed_records(mods, receipt)
                bad += receipt_bad
                started = transfer_start(job)
                if started.get("records") != len(records):
                    bad.append(f"{job.job_id}: {len(records)} records landed, {started.get('records')} produced")
                expected = fixed_expected(FLEET_X0, len(job.vm_pool))
                bad += compare(records, expected, not started.get("partial", True), f"{job.job_id} transfer")
                landed += len(records)
                files += len(receipt.files)
        if bad:
            problems[job.job_id] = bad
    counts = {"jobs": len(finished), "records_landed": landed, "files_landed": files}
    counts.update({f"outcome.{k}": v for k, v in sorted(outcomes.items())})
    return Round(
        job_ns, loop_ns / 1e9, None, FLEET_JOBS, _failed_jobs(problems, FLEET_JOBS), landed,
        counts, None, _flatten(problems),
    )


def round_runner(workload: str, seed: int) -> Callable[[Prepared, Path, Any], Round]:
    if workload == "store_fill":
        return store_fill_round
    if workload == "wide_job":
        return wide_job_round
    return lambda prep, round_dir, tracer: fault_fleet_round(prep, round_dir, tracer, seed)


WORKLOADS = ("store_fill", "wide_job", "fault_fleet")
