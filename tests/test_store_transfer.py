import hashlib
import json
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import pytest

from smartconn.cli import main as cli_main
from smartconn.cloud_sim import KIND_TASK, FaultPlan, SimulatedProvider
from smartconn.core_model import (
    FtStrategy,
    JobState,
    MissingMetric,
    OutcomeKind,
    RetryStrategy,
    SweepSpec,
    TaskCodeKind,
    TaskCodeRef,
    UserReqVM,
    canonical_json,
)
from smartconn.sc_engine import Env, run_to_completion, start_job
from smartconn.sc_execution import OutputRecord, TaskRunOutput, TaskSummary
from smartconn.store_transfer import (
    CorruptRecord,
    DuplicateDataset,
    JobStore,
    TransferFailed,
    UnknownJob,
    _first_unclaimed,
    export_plot_data,
    transfer_output,
    verify_receipt,
)
from smartconn.sweep import launch_sweep

from support import FIXED_INPUT, RecordingProvider, demo_definition, fixed_connector, simple_definition

REQ = UserReqVM(2, 1)


def two_record_output(payloads=False):
    records = (
        OutputRecord("t1p1", 1, 1, {"value": 4.0}, payload="out a" if payloads else None),
        OutputRecord("t1p2", 1, 1, {"value": 4.0}, payload="out b" if payloads else None),
    )
    return TaskRunOutput(records, {1: TaskSummary(1, True, 4.0)}, (), False)


def run_into_store(tmp_path, defn=None, data=None, plan=None, store=None):
    store = store or JobStore(tmp_path / "store")
    env = Env(SimulatedProvider(plan or FaultPlan.scripted()), store=store)
    job = start_job(defn or demo_definition(), data or dict(FIXED_INPUT), REQ, job_id=store.allocate_job_id())
    return run_to_completion(job, env), store, env


# ---------------------------------------------------------------------------
# transfer


def test_transfer_writes_one_records_file(tmp_path):
    provider = SimulatedProvider(FaultPlan.scripted())
    output = two_record_output()
    receipt = transfer_output(output, tmp_path, "job-0001", provider)
    assert [e.path for e in receipt.files] == ["records.jsonl"]
    assert receipt.destination_path == str(tmp_path / "job-0001")
    # without payloads the transfer makes no payloads/ directory
    assert [p.name for p in (tmp_path / "job-0001").iterdir()] == ["records.jsonl"]
    lines = (tmp_path / "job-0001" / "records.jsonl").read_text().splitlines()
    assert lines == [canonical_json(r.to_dict()) for r in output.records]
    assert json.loads(lines[0]) == {
        "process": "t1p1", "task": 1, "iteration": 1,
        "metrics": {"value": 4.0}, "payload_path": None,
    }
    assert verify_receipt(receipt) == []


def test_transfer_includes_payload_files_when_present(tmp_path):
    provider = SimulatedProvider(FaultPlan.scripted())
    receipt = transfer_output(two_record_output(payloads=True), tmp_path, "j", provider)
    paths = [e.path for e in receipt.files]
    assert "payloads/t1p1-i1.txt" in paths and "records.jsonl" in paths
    assert (tmp_path / "j" / "payloads/t1p1-i1.txt").read_text() == "out a"
    record = json.loads((tmp_path / "j" / "records.jsonl").read_text().splitlines()[0])
    assert record["payload_path"] == "payloads/t1p1-i1.txt"


def test_stored_and_transferred_records_are_the_same_bytes(tmp_path):
    command = TaskCodeRef(TaskCodeKind.EXTERNAL_COMMAND, {"command": "solve --x {x0} --iter {iteration}"})
    defn = simple_definition(max_iterations=2)._replace(t_code=(command,))
    job, store, _ = run_into_store(tmp_path, defn=defn)
    assert job.outcome.kind is OutcomeKind.SUCCESS
    stored = (store.job_dir(job.job_id) / "output" / "records.jsonl").read_bytes()
    transfer_root = store.transfers_dir / job.job_id
    assert stored == (transfer_root / "records.jsonl").read_bytes()
    records = [json.loads(line) for line in stored.splitlines()]
    assert len(records) == 4
    for r in records:
        assert r["payload_path"] == f"payloads/{r['process']}-i{r['iteration']}.txt"
        assert (transfer_root / r["payload_path"]).read_text() == f"solve --x 8.0 --iter {r['iteration']}"


def test_transfer_retries_once_by_default(tmp_path):
    provider = RecordingProvider(FaultPlan.scripted(transfer=[False, True]))
    receipt = transfer_output(two_record_output(), tmp_path, "j", provider)
    assert len(receipt.files) == 1
    assert [ok for ok, _ in provider.transfer_outcomes] == [False, True]


def test_transfer_exhausting_the_budget_raises(tmp_path):
    provider = SimulatedProvider(FaultPlan.scripted(transfer=[False, False]))
    with pytest.raises(TransferFailed, match="plan position 1"):
        transfer_output(two_record_output(), tmp_path, "j", provider)
    assert not (tmp_path / "j").exists()  # nothing written on failure


def test_verify_receipt_catches_tampering(tmp_path):
    provider = SimulatedProvider(FaultPlan.scripted())
    receipt = transfer_output(two_record_output(), tmp_path, "j", provider)
    target = tmp_path / "j" / receipt.files[0].path
    target.write_bytes(target.read_bytes()[:-2] + b'!"')
    problems = verify_receipt(receipt)
    assert problems and "records.jsonl" in problems[0]


# ---------------------------------------------------------------------------
# job persistence


def test_save_and_load_job_roundtrip(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    assert store.load_job(job.job_id) == job
    d = store.job_dir(job.job_id)
    assert {p.name for p in d.iterdir()} == {"status.json", "output"}
    assert {p.name for p in (d / "output").iterdir()} == {"records.jsonl", "summary.json"}
    rejected, _, _ = run_into_store(tmp_path, data={"x0": -1.0}, store=store)
    assert rejected.outcome.kind is OutcomeKind.DATA_CHECK_FAILED
    assert [p.name for p in store.job_dir(rejected.job_id).iterdir()] == ["status.json"]


_writes: list[str] | None = None  # final paths written while a test watches


def _watch_writes(event, args):
    if _writes is None:
        return
    if event == "os.rename":
        _writes.append(str(args[1]))
    elif event == "open" and args[2] & (os.O_WRONLY | os.O_RDWR) and not str(args[0]).endswith(".tmp"):
        _writes.append(str(args[0]))


sys.addaudithook(_watch_writes)  # idle while _writes is None; a hook cannot be removed


def test_a_stored_job_writes_its_record_once_and_no_path_twice(tmp_path, monkeypatch):
    global _writes
    saved = []
    save_job = JobStore.save_job

    def recording_save_job(self, job):
        saved.append(job.state.value)
        save_job(self, job)

    monkeypatch.setattr(JobStore, "save_job", recording_save_job)
    store = JobStore(tmp_path / "store")
    _writes = []
    try:
        job, _, _ = run_into_store(tmp_path, store=store)
        written = [p for p in _writes if p.startswith(str(store.root))]
    finally:
        _writes = None
    assert job.outcome.kind is OutcomeKind.SUCCESS
    assert saved == ["Completed"]
    # status.json, records.jsonl and summary.json, the transferred
    # records.jsonl, the curation claim and the index append
    assert len(written) == 6 and len(set(written)) == 6, written


class _ProcessDied(Exception):
    pass


class _DiesOnFirstTaskStep(SimulatedProvider):
    def run_remote(self, vm_id, step, now):
        if step.kind == KIND_TASK:
            raise _ProcessDied(step.command)
        return super().run_remote(vm_id, step, now)


def test_a_job_interrupted_mid_run_is_only_its_claim(tmp_path, monkeypatch, capsys):
    done, store, _ = run_into_store(tmp_path)
    env = Env(_DiesOnFirstTaskStep(FaultPlan.scripted()), store=store)
    job = start_job(demo_definition(), dict(FIXED_INPUT), REQ, job_id=store.allocate_job_id())
    with pytest.raises(_ProcessDied):
        run_to_completion(job, env)
    assert list(store.job_dir(job.job_id).iterdir()) == []
    assert not list(store.root.rglob("*.tmp"))
    assert [j.job_id for j in store.list_jobs()] == [done.job_id]
    with pytest.raises(UnknownJob):
        store.load_job(job.job_id)
    monkeypatch.setenv("SC_STORE", str(store.root))
    assert cli_main(["job", "status", job.job_id]) == 1
    assert "error:" in capsys.readouterr().err
    assert (done.job_id, job.job_id, store.allocate_job_id()) == ("job-0001", "job-0002", "job-0003")


def test_unknown_job_raises(tmp_path):
    store = JobStore(tmp_path)
    with pytest.raises(UnknownJob):
        store.load_job("job-9999")


def test_flipping_a_byte_in_the_job_record_is_detected(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    path = store.job_dir(job.job_id) / "status.json"
    text = path.read_text().replace('"Success"', '"Svccess"', 1)
    path.write_text(text)
    with pytest.raises(CorruptRecord, match="digest mismatch"):
        store.load_job(job.job_id)


def test_truncated_status_file_is_detected(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    path = store.job_dir(job.job_id) / "status.json"
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(CorruptRecord):
        store.load_job(job.job_id)


def test_job_ids_allocate_sequentially(tmp_path):
    store = JobStore(tmp_path)
    job1, _, _ = run_into_store(tmp_path, store=store)
    job2, _, _ = run_into_store(tmp_path, store=store)
    assert (job1.job_id, job2.job_id) == ("job-0001", "job-0002")
    assert [j.job_id for j in store.list_jobs()] == ["job-0001", "job-0002"]


def test_two_stores_on_one_root_claim_distinct_job_ids(tmp_path):
    first, second = JobStore(tmp_path), JobStore(tmp_path)
    assert (first.allocate_job_id(), second.allocate_job_id()) == ("job-0001", "job-0002")
    # both claims stay unsaved, as if their processes had died
    job, _, _ = run_into_store(tmp_path, store=first)
    assert job.job_id == "job-0003"
    assert [j.job_id for j in second.list_jobs()] == ["job-0003"]


def test_allocating_a_job_id_lists_no_directory(tmp_path, monkeypatch):
    store = JobStore(tmp_path)
    for _ in range(5):
        store.allocate_job_id()

    def forbidden(*args, **kwargs):
        raise AssertionError("allocate_job_id listed a directory")

    monkeypatch.setattr(os, "scandir", forbidden)
    monkeypatch.setattr(os, "listdir", forbidden)
    monkeypatch.setattr(Path, "iterdir", forbidden)
    assert store.allocate_job_id() == "job-0006"


def test_the_id_search_ignores_a_wrong_guess(tmp_path):
    # the guess is a directory's link count, which some filesystems do not keep
    for n in range(1, 21):
        (tmp_path / str(n)).mkdir()
        for guess in range(-1, 30):
            assert _first_unclaimed(lambda k: f"{tmp_path}/{k}", guess) == n + 1


def test_the_next_job_id_follows_the_claimed_prefix(tmp_path):
    store = JobStore(tmp_path)
    for n in range(1, 38):
        store.job_dir(f"job-{n:04d}").mkdir()
    store.job_dir("job-1f0e4c3a9b2d").mkdir()  # a job saved under a start_job default id
    assert store.allocate_job_id() == "job-0038"


def test_job_record_and_summary_are_one_canonical_line_each(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    d = store.job_dir(job.job_id)
    body = canonical_json(job.to_dict())
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert (d / "status.json").read_text() == '{"job":' + body + ',"sha256":"' + digest + '"}\n'
    summary = store.load_output_summary(job.job_id)
    assert (d / "output" / "summary.json").read_text() == canonical_json(summary) + "\n"


def test_a_pretty_printed_record_from_an_older_store_still_loads(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    record = job.to_dict()
    wrapped = {"sha256": hashlib.sha256(canonical_json(record).encode()).hexdigest(), "job": record}
    path = store.job_dir(job.job_id) / "status.json"
    path.write_text(json.dumps(wrapped, indent=2, sort_keys=True) + "\n")
    assert store.load_job(job.job_id) == job


def test_stored_events_match_the_in_memory_log(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    assert store.load_job(job.job_id).event_log.to_jsonl() == job.event_log.to_jsonl()


def test_output_summary_reflects_the_run(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    summary = store.load_output_summary(job.job_id)
    assert summary["tasks"]["1"] == {"iterations": 4, "converged": True, "final_metric": 0.5}
    assert summary["partial"] is False


# ---------------------------------------------------------------------------
# curation


def test_successful_run_curates_one_dataset(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    records = store.load_curation()
    assert len(records) == 1
    rec = records[0]
    assert rec.dataset_id == f"ds-{job.job_id}"
    assert rec.parameters == dict(FIXED_INPUT)
    assert rec.metrics["task1"]["final_metric"] == 0.5
    assert rec.metrics["task1"] == store.load_output_summary(job.job_id)["tasks"]["1"]
    assert rec.partial is False
    assert rec.files  # manifest carried over from the receipt


def test_failed_run_is_not_curated(tmp_path):
    job, store, _ = run_into_store(tmp_path, plan=FaultPlan.scripted(task_step=[False]))
    assert job.outcome.kind is OutcomeKind.EXEC_FAILED
    assert store.load_curation() == []


def test_curating_the_same_job_twice_is_rejected(tmp_path):
    job, store, env = run_into_store(tmp_path)
    with pytest.raises(DuplicateDataset):
        store.curate(env.receipts[job.job_id], job, env.pending_output[job.job_id])


def test_curate_never_reads_the_index(tmp_path, monkeypatch):
    def no_index_reads(self):
        raise AssertionError("curate read the curation index")

    monkeypatch.setattr(JobStore, "load_curation", no_index_reads)
    job, store, env = run_into_store(tmp_path)
    assert (store.claims_dir / job.job_id).is_file()
    with pytest.raises(DuplicateDataset):
        store.curate(env.receipts[job.job_id], job, env.pending_output[job.job_id])


def test_a_second_store_on_the_same_root_rejects_the_duplicate(tmp_path):
    job, store, env = run_into_store(tmp_path)
    other = JobStore(store.root)  # as a second CLI process would open it
    with pytest.raises(DuplicateDataset):
        other.curate(env.receipts[job.job_id], job, env.pending_output[job.job_id])
    assert [r.job_id for r in other.load_curation()] == [job.job_id]


def test_partial_outputs_are_flagged_in_the_dataset(tmp_path):
    from smartconn.cloud_sim import ReachabilityLoss
    from smartconn.core_model import FtStrategy

    # one VM dies mid-execution; AbandonAndCollect keeps the survivors
    defn = simple_definition(ft_strategy=FtStrategy.ABANDON_AND_COLLECT)
    plan = FaultPlan.scripted(reachability=[ReachabilityLoss("vm-0", 4)])
    job, store, _ = run_into_store(tmp_path, defn=defn, plan=plan)
    assert job.outcome.kind is OutcomeKind.SUCCESS
    records = store.load_curation()
    assert records and records[0].partial is True


# ---------------------------------------------------------------------------
# export


def test_export_demo_job_metric_column(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    csv_text = export_plot_data(store, [job.job_id], ["value"])
    # the demo task fans out to a single process, one row per iteration
    assert csv_text.splitlines() == [
        "job_id,process,iteration,value",
        f"{job.job_id},t1p1,1,4.0",
        f"{job.job_id},t1p1,2,2.0",
        f"{job.job_id},t1p1,3,1.0",
        f"{job.job_id},t1p1,4,0.5",
    ]
    assert csv_text.endswith("\n") and "\r" not in csv_text


def test_export_includes_sweep_variable_columns(tmp_path):
    store = JobStore(tmp_path / "store")
    defn = simple_definition(sweep=SweepSpec({"T": [1, 2]}))

    def factory(i, binding):
        return Env(SimulatedProvider(FaultPlan.scripted()), store=store)

    jobs = launch_sweep(defn, {"x0": 1.0}, REQ, factory)
    csv_text = export_plot_data(store, [j.job_id for j in jobs], ["value"])
    lines = csv_text.splitlines()
    assert lines[0] == "job_id,process,T,iteration,value"
    assert lines[1] == "job-0001,t1p1,1,1,1.0"
    assert lines[-1] == "job-0002,t1p2,2,1,1.0"


def test_export_with_no_metrics_is_header_only(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    assert export_plot_data(store, [job.job_id], []) == "job_id,process,iteration\n"


def test_export_unknown_metric_raises(tmp_path):
    job, store, _ = run_into_store(tmp_path)
    with pytest.raises(MissingMetric, match="energy"):
        export_plot_data(store, [job.job_id], ["energy"])


def test_export_partially_present_metric_leaves_gaps(tmp_path):
    store = JobStore(tmp_path)
    job, _, env = run_into_store(tmp_path, store=store)
    # append a record that lacks the metric alongside the real ones
    out_dir = store.job_dir(job.job_id) / "output"
    with (out_dir / "records.jsonl").open("a") as fh:
        fh.write(json.dumps({"process": "t1p9", "task": 1, "iteration": 1, "metrics": {}, "payload_path": None}) + "\n")
    lines = export_plot_data(store, [job.job_id], ["value"]).splitlines()
    assert lines[-1] == f"{job.job_id},t1p9,1,"


# ---------------------------------------------------------------------------
# sweeps and settings


def test_sweep_grouping_roundtrip(tmp_path):
    store = JobStore(tmp_path)
    sid = store.allocate_sweep_id()
    store.save_sweep(sid, ["job-0001", "job-0002"])
    assert store.load_sweep(sid) == ["job-0001", "job-0002"]
    with pytest.raises(UnknownJob):
        store.load_sweep("sweep-9999")


def test_two_stores_on_one_root_claim_distinct_sweep_ids(tmp_path):
    first, second = JobStore(tmp_path), JobStore(tmp_path)
    a, b = first.allocate_sweep_id(), second.allocate_sweep_id()
    assert (a, b) == ("sweep-0001", "sweep-0002")
    with pytest.raises(CorruptRecord):  # claimed, not yet saved
        first.load_sweep(a)
    first.save_sweep(a, ["job-0001"])
    second.save_sweep(b, ["job-0002"])
    assert (first.load_sweep(a), first.load_sweep(b)) == (["job-0001"], ["job-0002"])
    assert first.allocate_sweep_id() == "sweep-0003"


def test_settings_roundtrip_and_default(tmp_path):
    store = JobStore(tmp_path)
    assert store.load_settings() == {}
    store.save_settings({"vms": "3:2", "provider.seed": 7})
    assert store.load_settings() == {"vms": "3:2", "provider.seed": 7}


def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    store = JobStore(tmp_path)
    store.save_settings({"vms": "3:2"})

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        store.save_settings({"vms": "4:2"})
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["settings.json"]
    assert store.load_settings() == {"vms": "3:2"}


def _write_settings(root, writer, writes, barrier):
    store = JobStore(root)
    barrier.wait(timeout=60)
    for i in range(writes):
        store.save_settings({"writer": writer, "write": i})


def test_concurrent_writers_of_one_file_do_not_collide(tmp_path):
    # more writers than cores, so their writes interleave; capped so a
    # large host does not start dozens of interpreters
    workers = min((os.cpu_count() or 1) + 1, 16)
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(workers)
    procs = [ctx.Process(target=_write_settings, args=(tmp_path, w, 300, barrier)) for w in range(workers)]
    for p in procs:
        p.start()
    try:
        for p in procs:
            p.join(timeout=120)
        assert not any(p.is_alive() for p in procs)
        # a writer that raised exits 1, with its traceback on stderr
        assert [p.exitcode for p in procs] == [0] * workers
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join(timeout=10)
    settings = JobStore(tmp_path).load_settings()
    assert settings["write"] == 299 and 0 <= settings["writer"] < workers
    assert not list(tmp_path.glob("*.tmp"))


def _create_jobs(root, defn_path, input_path, jobs, barrier):
    os.environ["SC_STORE"] = str(root)
    barrier.wait(timeout=60)
    for _ in range(jobs):
        args = ["job", "create", "--def", str(defn_path), "--input", str(input_path), "--vms", "3:2"]
        if cli_main(args) != 0:
            sys.exit(1)


def test_concurrent_job_creates_on_one_store_stay_distinct(tmp_path):
    defn_path = tmp_path / "connector.json"
    defn_path.write_text(json.dumps(fixed_connector(RetryStrategy.BLOCK, FtStrategy.RERUN_ELSEWHERE).to_dict()))
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps(FIXED_INPUT))
    root = tmp_path / "store"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_create_jobs, args=(root, defn_path, input_path, 10, barrier)) for _ in range(2)]
    for p in procs:
        p.start()
    try:
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0, 0]
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join(timeout=10)
    store = JobStore(root)
    jobs = store.list_jobs()
    ids = sorted(j.job_id for j in jobs)
    assert len(set(ids)) == 20
    assert all(j.state is JobState.COMPLETED and j.outcome.kind is OutcomeKind.SUCCESS for j in jobs)
    assert sorted(r.job_id for r in store.load_curation()) == ids
    assert sorted(p.name for p in store.claims_dir.iterdir()) == ids
    assert not list(root.rglob("*.tmp"))


def test_threads_writing_one_file_do_not_collide(tmp_path):
    store = JobStore(tmp_path)
    errors = []

    def write(writer):
        try:
            for i in range(200):
                store.save_settings({"writer": writer, "write": i})
        except OSError as e:
            errors.append(e)

    threads = [threading.Thread(target=write, args=(w,)) for w in range(3)]
    interval = sys.getswitchinterval()
    # switch threads every 10 µs, so their writes interleave
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    settings = store.load_settings()
    assert settings["write"] == 199 and 0 <= settings["writer"] < 3
    assert not list(tmp_path.glob("*.tmp"))
