import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smartconn import (
    CostModel,
    EventLog,
    ExecParamT,
    ExecParamVM,
    InvalidDefinition,
    Job,
    SCDefinition,
    SignalKind,
    SweepSpec,
    TaskCodeKind,
    TaskCodeRef,
    UserReqVM,
    validate_definition,
    wcet_bound,
)
from smartconn.core_model import (
    Event,
    EventLogError,
    Signal,
    append_event,
    canonical_json,
)
from smartconn.sc_execution import OutputRecord
from smartconn.store_transfer import DatasetRecord, FileEntry, TransferReceipt
from support import arithmetic_code, demo_definition, simple_definition


# ---------------------------------------------------------------------------
# definition validation


def test_valid_definition_has_no_violations():
    assert validate_definition(demo_definition()) == []


def test_task_code_length_mismatch_is_reported():
    defn = simple_definition()._replace(
        exec_param_t=(ExecParamT(), ExecParamT()),
        t_code=(arithmetic_code(),),
    )
    violations = validate_definition(defn)
    assert "t_code length 1 != exec_param_t length 2" in violations


def test_empty_sweep_value_list_names_the_variable():
    defn = simple_definition(sweep=SweepSpec({"T": ()}))
    violations = validate_definition(defn)
    assert any("sweep variable 'T'" in v for v in violations)


def test_negative_retry_limit_is_a_violation_not_an_exception():
    defn = simple_definition()._replace(exec_param_vm=ExecParamVM(retry_limit=-1))
    violations = validate_definition(defn)
    assert any("retry_limit" in v and "-1" in v for v in violations)


def test_all_violations_are_collected():
    defn = simple_definition(sweep=SweepSpec({"T": ()}))._replace(
        name="",
        exec_param_vm=ExecParamVM(retry_limit=-1, bootstrap_step_count=0),
    )
    violations = validate_definition(defn)
    assert len(violations) >= 4


def test_reserved_sweep_variable_names_are_rejected():
    defn = simple_definition(sweep=SweepSpec({"iteration": (1, 2)}))
    assert any("reserved" in v for v in validate_definition(defn))


def test_user_req_vm_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        UserReqVM(2, 5)
    with pytest.raises(ValueError):
        UserReqVM(0, 0)


# ---------------------------------------------------------------------------
# event log


def test_append_to_empty_log():
    log = append_event(EventLog(), 0, Signal(SignalKind.SC_START), "user")
    assert len(log.entries) == 1
    assert log.last_time() == 0
    assert log.entries[0].source == "user"


def test_append_rejects_time_regression():
    log = append_event(EventLog(), 5, Signal(SignalKind.SC_START), "user")
    with pytest.raises(EventLogError, match="regression"):
        append_event(log, 4, Signal(SignalKind.DATA_CHECK_OK), "DataAnalysis")


def test_append_allows_equal_times():
    log = append_event(EventLog(), 5, Signal(SignalKind.SC_START), "user")
    log = append_event(log, 5, Signal(SignalKind.DATA_CHECK_OK), "DataAnalysis")
    assert log.last_time() == 5


def test_append_after_completion_is_rejected():
    log = append_event(EventLog(), 0, Signal(SignalKind.SC_COMPLETED), "EnvCleanUp")
    with pytest.raises(EventLogError, match="terminal"):
        append_event(log, 1, Signal(SignalKind.DATA_CHECK_OK), "DataAnalysis")


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=30))
def test_log_times_are_non_decreasing_under_any_appends(deltas):
    log = EventLog()
    t = 0
    for d in deltas:
        t += d
        log = append_event(log, t, Signal(SignalKind.DATA_CHECK_OK), "DataAnalysis")
    times = [e.virtual_time for e in log.entries]
    assert times == sorted(times)


def test_event_log_jsonl_roundtrip():
    log = append_event(EventLog(), 0, Signal(SignalKind.SC_START), "user")
    log = append_event(log, 3, Signal(SignalKind.DATA_CHECK_OK, {"b": 1, "a": 2}), "DataAnalysis")
    assert EventLog.from_jsonl(log.to_jsonl()) == log
    # canonical line format: sorted keys, one object per line
    first = log.to_jsonl().splitlines()[0]
    assert first == '{"kind":"scStart","payload":null,"source":"user","t":0}'


# ---------------------------------------------------------------------------
# cost model and the duration bound


def test_zero_costs_give_zero_bound():
    defn = simple_definition()
    assert wcet_bound(defn, UserReqVM(1, 1), CostModel(0, 0, 0, (0,), 0, 0)) == 0


def test_unit_cost_single_task_bound_is_six():
    defn = simple_definition(max_iterations=1, retry_limit=0)
    assert wcet_bound(defn, UserReqVM(1, 1), CostModel()) == 6


def test_two_task_bound_sums_per_task_iteration_budgets():
    defn = simple_definition()._replace(
        exec_param_vm=ExecParamVM(retry_limit=2),
        exec_param_t=(ExecParamT(max_iterations=3), ExecParamT(max_iterations=2)),
        t_code=(arithmetic_code(), arithmetic_code()),
    )
    cost = CostModel(
        data_check=1,
        vm_create_attempt=4,
        bootstrap=2,
        task_iteration=(5, 7),
        transfer=3,
        cleanup_per_vm=1,
    )
    assert wcet_bound(defn, UserReqVM(2, 1), cost) == 49


def test_bound_refuses_invalid_definitions():
    bad = simple_definition()._replace(t_code=())
    with pytest.raises(InvalidDefinition):
        wcet_bound(bad, UserReqVM(1, 1), CostModel())


def test_cost_model_rejects_negative_costs():
    with pytest.raises(ValueError):
        CostModel(data_check=-1)


def test_task_cost_reuses_last_entry_beyond_the_tuple():
    cost = CostModel(task_iteration=(5, 7))
    assert [cost.task_cost(k) for k in (1, 2, 3, 9)] == [5, 7, 7, 7]


# ---------------------------------------------------------------------------
# serialization


def test_definition_dict_roundtrip():
    defn = demo_definition()
    assert SCDefinition.from_dict(defn.to_dict()) == defn


def test_job_dict_roundtrip_preserves_everything():
    log = append_event(EventLog(), 0, Signal(SignalKind.SC_START), "user")
    job = Job(
        job_id="job-0001",
        definition=demo_definition(),
        data_input={"x0": 8.0},
        user_req_vm=UserReqVM(3, 2),
        vm_pool=("vm-0", "vm-1"),
        iteration={1: 4},
        event_log=log,
        destination="/tmp/out",
    )
    # a Created job keeps the shared read-only default of `iteration`
    created = Job("job-0002", demo_definition(), {"x0": 8.0}, UserReqVM(3, 2), event_log=log)
    for j in (job, created):
        assert Job.from_dict(j.to_dict()) == j


def _records():
    signal = Signal(SignalKind.SC_START)
    entry = FileEntry("records.jsonl", 3, "ab")
    return [
        (Job("job-0001", demo_definition(), {"x0": 8.0}, UserReqVM(3, 2)), "state"),
        (Event(0, signal, "user"), "source"),
        (signal, "kind"),
        (demo_definition(), "name"),
        (OutputRecord("t1p1", 1, 1, {"value": 4.0}), "metrics"),
        (entry, "size"),
        (TransferReceipt("/tmp/out", (entry,), 5), "files"),
        (DatasetRecord("ds-job-0001", "job-0001", {}, {}, (entry,), 5, False), "partial"),
    ]


@pytest.mark.parametrize("record,attr", _records(), ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_records_refuse_attribute_assignment(record, attr):
    with pytest.raises(AttributeError):
        setattr(record, attr, None)


@pytest.mark.parametrize(
    "mapping",
    [
        Job("job-0001", demo_definition(), {"x0": 8.0}, UserReqVM(3, 2)).iteration,
        TaskCodeRef(TaskCodeKind.BUILTIN_CONTRACTION).spec,
        SweepSpec().variables,
    ],
    ids=["Job.iteration", "TaskCodeRef.spec", "SweepSpec.variables"],
)
def test_defaulted_mapping_fields_refuse_item_assignment(mapping):
    # the default is shared by every record built without the field
    with pytest.raises(TypeError):
        mapping[1] = 1


def test_canonical_json_is_key_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


@pytest.mark.parametrize(
    "value",
    [
        {"z": {"b": [1, {"d": None, "c": True}], "a": 2.5}, "y": []},
        {"name": "Zürich – 東京", "emoji": "\U0001f600"},
        {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
        "plain string",
    ],
)
def test_canonical_json_equals_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))
