import json
import subprocess
import sys
from pathlib import Path

import pytest

import smartconn
from smartconn.cli import build_parser, main, parse_vms
from smartconn.cloud_sim import FaultPlan
from smartconn.core_model import SweepSpec
from smartconn.store_transfer import JobStore

from support import demo_definition, simple_definition


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("SC_STORE", str(tmp_path / "store"))
    defn_path = tmp_path / "connector.json"
    defn_path.write_text(json.dumps(demo_definition().to_dict(), indent=2))
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps({"x0": 8.0}))
    return tmp_path


def store(workspace):
    return JobStore(workspace / "store")


def create_job(workspace, *extra):
    return main(
        ["job", "create", "--def", str(workspace / "connector.json"),
         "--input", str(workspace / "input.json"), "--vms", "3:2", *extra]
    )


# ---------------------------------------------------------------------------
# job commands


def test_create_runs_the_job_and_persists_it(workspace, capsys):
    assert create_job(workspace) == 0
    out = capsys.readouterr().out
    assert "job-0001" in out and "Success" in out
    job = store(workspace).load_job("job-0001")
    assert job.state.value == "Completed"


def test_create_with_a_failure_outcome_still_exits_zero(workspace, capsys):
    plan_path = workspace / "plan.json"
    FaultPlan.scripted(create_vm=[False] * 8).to_file(plan_path)
    assert create_job(workspace, "--fault-plan", str(plan_path)) == 0
    assert "VmFailed" in capsys.readouterr().out


def test_create_without_vm_request_anywhere_is_a_domain_error(workspace, capsys):
    code = main(
        ["job", "create", "--def", str(workspace / "connector.json"),
         "--input", str(workspace / "input.json")]
    )
    assert code == 1
    assert "no VM request" in capsys.readouterr().err


def test_malformed_vms_argument_is_a_usage_error(workspace):
    with pytest.raises(SystemExit) as exc:
        create_job(workspace, "--vms", "banana")
    assert exc.value.code == 2


def test_inverted_vms_bounds_are_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["job", "create", "--def", "d", "--input", "i", "--vms", "2:5"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_successive_calls_on_one_parser_do_not_leak_arguments(workspace, capsys):
    plan_path = workspace / "plan.json"
    FaultPlan.scripted(create_vm=[False] * 8).to_file(plan_path)
    assert create_job(workspace, "--fault-plan", str(plan_path)) == 0
    assert "job-0001  state=Completed  outcome=VmFailed" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        create_job(workspace, "--vms", "banana")
    assert exc.value.code == 2
    capsys.readouterr()
    assert create_job(workspace) == 0
    assert "job-0002  state=Completed  outcome=Success" in capsys.readouterr().out


def test_parse_vms_accepts_ideal_colon_minimal():
    req = parse_vms("3:2")
    assert (req.ideal, req.minimal) == (3, 2)


def test_list_shows_stored_jobs(workspace, capsys):
    create_job(workspace)
    create_job(workspace)
    capsys.readouterr()
    assert main(["job", "list"]) == 0
    out = capsys.readouterr().out
    assert "job-0001" in out and "job-0002" in out


def test_status_prints_iterations_and_optionally_events(workspace, capsys):
    create_job(workspace)
    capsys.readouterr()
    assert main(["job", "status", "job-0001", "--events"]) == 0
    out = capsys.readouterr().out
    assert "iterations={1: 4}" in out
    assert '"kind":"scStart"' in out


def test_status_of_an_unknown_job_is_a_domain_error(workspace, capsys):
    assert main(["job", "status", "job-0042"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_definition_file_is_a_domain_error(workspace, capsys):
    code = main(
        ["job", "create", "--def", str(workspace / "nope.json"),
         "--input", str(workspace / "input.json"), "--vms", "3:2"]
    )
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export


def test_export_writes_the_metric_csv(workspace, capsys):
    create_job(workspace)
    out_path = workspace / "metrics.csv"
    assert main(["export", "--job", "job-0001", "--metrics", "value", "--out", str(out_path)]) == 0
    assert out_path.read_text() == (
        "job_id,process,iteration,value\n"
        "job-0001,t1p1,1,4.0\n"
        "job-0001,t1p1,2,2.0\n"
        "job-0001,t1p1,3,1.0\n"
        "job-0001,t1p1,4,0.5\n"
    )


def test_export_of_an_absent_metric_is_a_domain_error(workspace, capsys):
    create_job(workspace)
    code = main(["export", "--job", "job-0001", "--metrics", "energy", "--out", str(workspace / "x.csv")])
    assert code == 1
    assert "energy" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# settings


def test_settings_roundtrip_via_the_cli(workspace, capsys):
    assert main(["settings", "set", "vms", "3:2"]) == 0
    assert main(["settings", "set", "provider.seed", "7"]) == 0
    capsys.readouterr()
    assert main(["settings", "get", "provider.seed"]) == 0
    assert capsys.readouterr().out.strip() == "7"
    # the stored default now applies to job create
    code = main(
        ["job", "create", "--def", str(workspace / "connector.json"),
         "--input", str(workspace / "input.json")]
    )
    assert code == 0


def test_settings_get_of_an_unset_key_is_a_domain_error(workspace, capsys):
    assert main(["settings", "get", "no.such.key"]) == 1
    assert "not set" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# replay and sweeps


def test_replay_prints_a_stable_event_log(workspace, capsys):
    plan_path = workspace / "plan.json"
    FaultPlan.seeded(21, p_task_fail=0.2).to_file(plan_path)
    argv = [
        "replay", "--def", str(workspace / "connector.json"),
        "--input", str(workspace / "input.json"), "--vms", "3:2",
        "--fault-plan", str(plan_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == '{"kind":"scStart","payload":null,"source":"user","t":0}'


def test_sweep_run_creates_one_job_per_binding(workspace, capsys):
    defn = simple_definition(sweep=SweepSpec({"T": [1, 2, 3]}))
    defn_path = workspace / "sweep-connector.json"
    defn_path.write_text(json.dumps(defn.to_dict()))
    code = main(
        ["sweep", "run", "--def", str(defn_path),
         "--input", str(workspace / "input.json"), "--vms", "2:1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep-0001  jobs=3" in out
    assert store(workspace).load_sweep("sweep-0001") == ["job-0001", "job-0002", "job-0003"]
    # exporting the whole sweep includes the T column
    out_path = workspace / "sweep.csv"
    assert main(["export", "--sweep", "sweep-0001", "--metrics", "value", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "job_id,process,T,iteration,value"
    assert len(lines) == 1 + 3 * 2  # three jobs, two processes each


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point_runs(workspace):
    # The child's env is built from scratch, so point it at the package under
    # test: a checkout run with PYTHONPATH=src has nothing installed.
    package_root = Path(smartconn.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "smartconn", "job", "list"],
        capture_output=True, text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(package_root),
            "SC_STORE": str(workspace / "store"),
        },
    )
    assert result.returncode == 0, result.stderr
    assert "JOB" in result.stdout
