"""JobSpec wire form / cache identity and the JobRecord state machine."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.euler.solver import SolverConfig
from repro.serve.jobs import TRANSITIONS, JobRecord, JobSpec, JobState


def sod_spec(**overrides):
    payload = dict(problem="sod", problem_args={"n_cells": 64}, t_end=0.1)
    payload.update(overrides)
    return JobSpec(**payload)


# -- spec validation -----------------------------------------------------


def test_unknown_problem_rejected():
    with pytest.raises(ConfigurationError, match="unknown problem"):
        JobSpec(problem="kelvin_helmholtz", t_end=0.1)


def test_stepping_problem_needs_stopping_criterion():
    with pytest.raises(ConfigurationError, match="t_end and/or max_steps"):
        JobSpec(problem="sod")


def test_exact_needs_positive_t():
    with pytest.raises(ConfigurationError, match="problem_args\\['t'\\]"):
        JobSpec(problem="exact", problem_args={"base": "sod"})
    with pytest.raises(ConfigurationError, match="problem_args\\['t'\\]"):
        JobSpec(problem="exact", problem_args={"t": -0.5})
    JobSpec(problem="exact", problem_args={"t": 0.2})  # fine without t_end


@pytest.mark.parametrize(
    "field, value",
    [("trace_every", 0), ("deadline_s", -1.0)],
)
def test_bad_scheduling_attributes_rejected(field, value):
    with pytest.raises(ConfigurationError):
        sod_spec(**{field: value})


def test_config_must_be_solver_config():
    with pytest.raises(ConfigurationError, match="SolverConfig"):
        JobSpec(problem="sod", t_end=0.1, config={"cfl": 0.5})


@pytest.mark.parametrize(
    "field, value",
    [
        ("priority", "high"),
        ("priority", None),
        ("t_end", "soon"),
        ("max_steps", "many"),
        ("deadline_s", [1.0]),
        ("max_steps", [3]),
        ("trace_every", {}),
    ],
)
def test_wrong_typed_scheduling_fields_rejected(field, value):
    """Wire payloads with garbage types fail at construction — not later
    inside the dispatcher's heap or the supervisor's to_dict()."""
    payload = sod_spec().to_dict()
    payload[field] = value
    with pytest.raises(ConfigurationError, match=field):
        JobSpec.from_dict(payload)


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_end", float("nan")),
        ("t_end", float("inf")),
        ("deadline_s", float("nan")),
        ("max_steps", float("inf")),
    ],
)
def test_non_finite_stop_and_deadline_rejected(field, value):
    """json.loads admits NaN and Infinity: a NaN t_end would never stop,
    an infinite one would stop at once, and a NaN deadline fires at once."""
    payload = {"problem": "sod", "problem_args": {"n_cells": 32}, "t_end": 0.1}
    payload[field] = value
    with pytest.raises(ConfigurationError, match=field):
        JobSpec.from_dict(payload)


def test_problem_args_must_be_a_dict():
    with pytest.raises(ConfigurationError, match="problem_args"):
        JobSpec(problem="sod", problem_args=[("n_cells", 64)], t_end=0.1)


def test_numeric_strings_coerce():
    spec = JobSpec.from_dict({
        "problem": "sod", "t_end": "0.1", "priority": "3", "max_steps": "7",
    })
    assert spec.t_end == 0.1
    assert spec.priority == 3
    assert spec.max_steps == 7
    assert JobSpec.from_dict(spec.to_dict()) == spec


# -- wire form -----------------------------------------------------------


def test_wire_round_trip():
    spec = sod_spec(
        config=SolverConfig(cfl=0.4, riemann="hlle"),
        priority=3,
        deadline_s=2.5,
        max_steps=100,
        return_state=False,
        trace_every=5,
    )
    clone = JobSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.config.content_hash() == spec.config.content_hash()


def test_from_dict_rejects_unknown_keys():
    payload = sod_spec().to_dict()
    payload["njobs"] = 4
    with pytest.raises(ConfigurationError, match="njobs"):
        JobSpec.from_dict(payload)


def test_from_dict_defaults_config():
    spec = JobSpec.from_dict({"problem": "sod", "t_end": 0.1})
    assert spec.config == SolverConfig()


# -- cache identity ------------------------------------------------------


def test_cache_key_stable_across_instances():
    assert sod_spec().cache_key() == sod_spec().cache_key()


def test_scheduling_fields_do_not_change_cache_key():
    base = sod_spec()
    for overrides in (
        {"priority": 9},
        {"deadline_s": 1.0},
        {"trace_every": 50},
    ):
        assert sod_spec(**overrides).cache_key() == base.cache_key(), overrides


def test_result_fields_change_cache_key():
    base = sod_spec()
    for overrides in (
        {"problem": "lax"},
        {"problem_args": {"n_cells": 128}},
        {"config": SolverConfig(cfl=0.3)},
        {"t_end": 0.2},
        {"max_steps": 7},
        {"return_state": False},
    ):
        assert sod_spec(**overrides).cache_key() != base.cache_key(), overrides


# -- the state machine ---------------------------------------------------


def test_happy_path_transitions():
    record = JobRecord(job_id="j1", spec=sod_spec())
    assert record.state is JobState.QUEUED and not record.terminal
    record.transition(JobState.RUNNING)
    assert record.started is not None
    record.transition(JobState.DONE)
    assert record.terminal and record.finished is not None


def test_running_back_to_queued_is_illegal():
    """One attempt: nothing leads back into the queue."""
    assert TRANSITIONS[JobState.RUNNING] == {
        JobState.DONE, JobState.FAILED, JobState.CANCELLED,
    }
    record = JobRecord(job_id="j1", spec=sod_spec())
    record.transition(JobState.RUNNING)
    with pytest.raises(ServiceError, match="illegal transition"):
        record.transition(JobState.QUEUED)
    record.transition(JobState.FAILED)
    assert record.terminal


def test_max_attempts_is_an_unknown_wire_key():
    payload = sod_spec().to_dict()
    assert len(payload) == 9 and "max_attempts" not in payload
    with pytest.raises(ConfigurationError, match="max_attempts"):
        JobSpec.from_dict({**payload, "max_attempts": 1})


def test_queued_can_be_cancelled():
    record = JobRecord(job_id="j1", spec=sod_spec())
    record.transition(JobState.CANCELLED)
    assert record.terminal


def test_illegal_transitions_raise():
    record = JobRecord(job_id="j1", spec=sod_spec())
    with pytest.raises(ServiceError, match="illegal transition"):
        record.transition(JobState.DONE)  # queued -> done skips running
    record.transition(JobState.RUNNING)
    record.transition(JobState.DONE)
    for target in JobState:
        with pytest.raises(ServiceError, match="illegal transition"):
            record.transition(target)  # terminal states are final


def test_transition_table_is_exhaustive():
    assert set(TRANSITIONS) == set(JobState)
    for state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
        assert state.terminal and not TRANSITIONS[state]


def test_status_payload_is_json_ready():
    import json

    record = JobRecord(job_id="j1", spec=sod_spec())
    text = json.dumps(record.status())
    assert '"state": "queued"' in text
    assert "attempt" not in text
