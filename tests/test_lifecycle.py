"""The job-failure policy as a pure state machine.

``repro.core.lifecycle`` decides what happens after a job's backend
raises, its soft deadline passes or its worker dies; the evaluator's
serial loop and pool scheduler, the service coordinator and the worker
retry loop only carry the decision out.  Being pure, the whole policy is
checked here as a table — (policy, fault sequence) → delays, ledger,
raised error — with no pool, socket or sleep.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionConfig
from repro.core import lifecycle as lifecycle_module
from repro.core.lifecycle import FaultPolicy, JobLifecycle
from repro.errors import (
    BackendExecutionError,
    JobTimeoutError,
    WorkerCrashError,
)


def make_job(attempt: int = 0):
    return SimpleNamespace(
        fragment_index=3,
        backend=SimpleNamespace(name="mps"),
        attempt=attempt,
        timeout=0.5,
    )


def policy(mode: str, **overrides) -> FaultPolicy:
    fields = dict(
        failure_policy=mode,
        max_retries=2,
        retry_backoff=0.1,
        retry_backoff_cap=0.25,
        max_job_crashes=1,
    )
    fields.update(overrides)
    return FaultPolicy(**fields)


def drive(lifecycle: JobLifecycle, faults, fall_back=None):
    """Feed ``faults`` to the lifecycle as a runner would; returns the
    decisions made and the error that ended the job (or ``None``)."""
    decisions = []
    for fault in faults:
        lifecycle.job.attempt = lifecycle.attempt  # what a runner does
        try:
            if fault == "error":
                decision = lifecycle.on_error(RuntimeError("boom"), fall_back)
            elif fault == "timeout":
                decision = lifecycle.on_timeout(fall_back)
            else:
                decision = lifecycle.on_crash("worker w0 lost", fall_back)
        except Exception as exc:
            return decisions, exc
        decisions.append(decision)
    return decisions, None


def accept(lifecycle, reason):
    lifecycle.fell_back(f"elsewhere after {reason}")
    return True


def refuse(lifecycle, reason):
    return False


def never(lifecycle, reason):
    raise AssertionError("fall_back offered outside degrade mode")


#: (policy, faults, fall_back) -> (delays, event kinds, error type, attempts)
TABLE = [
    # raise: the first fault of any kind is fatal, nothing is recorded
    (policy("raise"), ["error"], never, [], [], BackendExecutionError, 1),
    (policy("raise"), ["timeout"], never, [], [], JobTimeoutError, 1),
    (policy("raise"), ["crash"], never, [], [], WorkerCrashError, 1),
    # retry: exceptions and timeouts share max_retries, doubling backoff
    (
        policy("retry"),
        ["error"] * 3,
        never,
        [0.1, 0.2],
        ["retry", "retry"],
        BackendExecutionError,
        3,
    ),
    (
        policy("retry"),
        ["timeout", "error", "timeout"],
        never,
        [0.1, 0.2],
        ["timeout", "retry"],
        JobTimeoutError,
        3,
    ),
    # ...crashes have their own budget, then quarantine
    (
        policy("retry"),
        ["crash", "crash"],
        never,
        [0.1],
        ["crash", "crash", "quarantine"],
        WorkerCrashError,
        2,
    ),
    (
        policy("retry"),
        ["error", "crash", "error"],
        never,
        [0.1, 0.1, 0.2],
        ["retry", "crash", "retry"],
        None,
        None,
    ),
    # the backoff is capped, and zero stays zero
    (
        policy("retry", max_retries=5),
        ["error"] * 4,
        never,
        [0.1, 0.2, 0.25, 0.25],
        ["retry"] * 4,
        None,
        None,
    ),
    (
        policy("retry", retry_backoff=0.0),
        ["error", "timeout"],
        never,
        [0.0, 0.0],
        ["retry", "timeout"],
        None,
        None,
    ),
    # degrade: an exhausted job is offered to the runner's fall_back...
    (
        policy("degrade"),
        ["error"] * 3,
        accept,
        [0.1, 0.2, None],
        ["retry", "retry", "fallback"],
        None,
        None,
    ),
    (
        policy("degrade"),
        ["timeout"] * 3,
        accept,
        [0.1, 0.2, None],
        ["timeout", "timeout", "fallback"],
        None,
        None,
    ),
    (
        policy("degrade"),
        ["crash", "crash"],
        accept,
        [0.1, None],
        ["crash", "crash", "quarantine", "fallback"],
        None,
        None,
    ),
    # ...with a fresh budget on the new target
    (
        policy("degrade", max_retries=0),
        ["error", "error", "error"],
        accept,
        [None, None, None],
        ["fallback"] * 3,
        None,
        None,
    ),
    # ...and ends like retry when the runner has nowhere left to go
    (
        policy("degrade"),
        ["error"] * 3,
        refuse,
        [0.1, 0.2],
        ["retry", "retry"],
        BackendExecutionError,
        3,
    ),
    (
        policy("degrade"),
        ["timeout"] * 3,
        None,
        [0.1, 0.2],
        ["timeout", "timeout"],
        JobTimeoutError,
        3,
    ),
]


@pytest.mark.parametrize(
    "fault_policy, faults, fall_back, delays, kinds, error, attempts", TABLE
)
def test_decision_table(
    fault_policy, faults, fall_back, delays, kinds, error, attempts
):
    events = []
    lifecycle = JobLifecycle(make_job(), fault_policy, events)
    decisions, raised = drive(lifecycle, faults, fall_back)
    assert decisions == pytest.approx(delays)
    assert [event.kind for event in events] == kinds
    assert all(
        (event.fragment_index, event.backend) == (3, "mps") for event in events
    )
    if error is None:
        assert raised is None
        return
    assert type(raised) is error
    assert (raised.fragment_index, raised.backend) == (3, "mps")
    assert raised.attempts == attempts


def test_errors_chain_their_cause_and_name_the_deadline():
    lifecycle = JobLifecycle(make_job(), policy("raise"), [])
    cause = ValueError("bad amplitude")
    with pytest.raises(BackendExecutionError) as info:
        lifecycle.on_error(cause)
    assert info.value.__cause__ is cause
    with pytest.raises(JobTimeoutError) as info:
        JobLifecycle(make_job(), policy("raise"), []).on_timeout()
    assert info.value.timeout == 0.5
    with pytest.raises(WorkerCrashError, match="quarantined"):
        lifecycle = JobLifecycle(make_job(), policy("retry"), [])
        drive(lifecycle, ["crash"])
        lifecycle.on_crash("w0 lost")


def test_attempt_counts_every_failure_and_survives_fallback():
    events = []
    lifecycle = JobLifecycle(make_job(attempt=4), policy("degrade"), events)
    drive(lifecycle, ["error", "crash", "error", "error"], accept)
    # the budget counters restart on the new target, the attempt number
    # (what a chaos schedule's fail_attempts is compared with) does not
    assert (lifecycle.failures, lifecycle.crashes) == (0, 0)
    assert lifecycle.attempt == 8
    # each event is located at the attempt that failed
    assert [event.attempt for event in events] == [4, 5, 6, 7]


def test_absorb_folds_in_another_runners_retries():
    events = []
    lifecycle = JobLifecycle(make_job(), policy("retry"), events)
    worker_events = []
    worker = JobLifecycle(
        lifecycle.job, lifecycle.policy.retry_only(), worker_events
    )
    decisions, raised = drive(worker, ["error"] * 3)
    assert decisions == pytest.approx([0.1, 0.2])
    assert isinstance(raised, BackendExecutionError)
    # the dispatcher absorbs the survived attempts, then decides the last
    lifecycle.absorb(worker_events)
    assert (lifecycle.failures, lifecycle.attempt) == (2, 2)
    with pytest.raises(BackendExecutionError, match="retries exhausted") as info:
        lifecycle.on_error(raised.__cause__)
    assert info.value.attempts == 3
    assert [event.kind for event in events] == ["retry", "retry"]


def test_policy_is_a_view_of_execution_config():
    execution = ExecutionConfig(
        failure_policy="degrade",
        max_retries=5,
        retry_backoff=0.3,
        retry_backoff_cap=0.9,
        max_job_crashes=2,
    )
    assert FaultPolicy.of(execution) == FaultPolicy("degrade", 5, 0.3, 0.9, 2)
    assert FaultPolicy.of(ExecutionConfig()) == FaultPolicy()
    assert FaultPolicy("degrade").retry_only().failure_policy == "retry"
    assert FaultPolicy("raise").retry_only() == FaultPolicy("raise")
    with pytest.raises(ValueError):
        FaultPolicy("panic")


def test_module_is_pure():
    tree = ast.parse(Path(lifecycle_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert not imported & {"time", "threading", "concurrent", "asyncio", "socket"}


FAULTS = st.sampled_from(["error", "timeout", "crash"])


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["raise", "retry", "degrade"]),
    max_retries=st.integers(0, 3),
    max_job_crashes=st.integers(1, 3),
    backoff=st.floats(0.0, 1.0),
    cap=st.floats(0.0, 1.0),
    targets=st.integers(1, 3),
    data=st.data(),
)
def test_any_fault_sequence_terminates_within_the_budget(
    mode, max_retries, max_job_crashes, backoff, cap, targets, data
):
    fault_policy = FaultPolicy(mode, max_retries, backoff, cap, max_job_crashes)
    bound = (max_retries + 1 + max_job_crashes) * targets
    faults = data.draw(st.lists(FAULTS, min_size=bound + 1, max_size=bound + 1))
    remaining = [targets - 1]

    def fall_back(lifecycle, reason):
        if not remaining[0]:
            return False
        remaining[0] -= 1
        lifecycle.fell_back(reason)
        return True

    events = []
    lifecycle = JobLifecycle(make_job(), fault_policy, events)
    resubmissions = 0
    raised = None
    for fault in faults:
        before = len(events)
        decisions, raised = drive(lifecycle, [fault], fall_back)
        if raised is not None:
            break
        resubmissions += 1
        new = [event.kind for event in events[before:]]
        if decisions == [None]:
            assert new == {
                "error": ["fallback"],
                "timeout": ["fallback"],
                "crash": ["crash", "quarantine", "fallback"],
            }[fault]
        else:
            assert 0.0 <= decisions[0] <= cap
            assert new == [{"error": "retry"}.get(fault, fault)]
    assert raised is not None, "the policy let a job fail forever"
    assert resubmissions <= bound
    assert raised.attempts == lifecycle.failures + lifecycle.crashes
