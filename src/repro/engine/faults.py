"""Deterministic fault injection for the routing engine.

Every recovery path in the resilience layer — task retry, pool rebuild,
the process → thread → serial degradation ladder, checkpoint-corruption
detection — is only trustworthy if a test can make the corresponding
failure *actually happen*.  A :class:`FaultPlan` describes a scripted
failure: kill the worker process handling the Nth speculative task,
delay a task, raise from inside the task, or garble a checkpoint as it
is written.  The plan travels inside each
:class:`~repro.engine.worker.NetTask` (it is a frozen, picklable
dataclass), so the same plan works under the serial, thread and process
executors.

Bounded firing.  A killed task is re-dispatched by the recovery layer —
with the same task index — so a naive "fire when index == N" plan would
fire forever and defeat the very recovery it is meant to exercise.
Firing is therefore *claimed* through marker files in ``state_dir``
(``O_CREAT | O_EXCL``, so concurrent workers in separate processes
cannot double-claim a slot): ``kill_times`` / ``fail_times`` /
``delay_times`` bound how often each fault fires across the whole
session, including across rebuilt pools and degraded engines.

Plans come from code (tests pass ``RoutingSession(...,
faults=FaultPlan(...))``) or from the environment (CI smoke jobs set
``REPRO_FAULTS="kill=0,kill_times=1,dir=/tmp/faults"``); see
:meth:`FaultPlan.from_env`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Optional

#: environment variable consulted by :meth:`FaultPlan.from_env`
FAULTS_ENV = "REPRO_FAULTS"

#: when set (the ``repro jobs serve`` process sets it for itself), a
#: service fault point dies with ``os._exit`` — a true no-cleanup kill —
#: instead of raising :class:`SimulatedCrash`
HARD_EXIT_ENV = "REPRO_FAULT_EXIT"

#: exit status used when a fault kills a worker process
KILL_STATUS = 70  # EX_SOFTWARE


class FaultInjected(RuntimeError):
    """The error raised by a scripted ``fail`` fault.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the recovery
    layer must treat it exactly like an unexpected third-party crash,
    not like a semantic routing outcome.
    """


class SimulatedCrash(BaseException):
    """In-process stand-in for a process kill at a service fault point.

    Derives from :class:`BaseException` on purpose: every ordinary
    recovery path catches ``Exception``, and a *crash* must not be
    recoverable from inside the dying process — it has to unwind all
    the way out so the test harness can "restart" the service against
    the on-disk state exactly as a fresh process would find it.  In a
    dedicated service process (``repro jobs serve``) the same fault
    point calls ``os._exit`` instead, which is the real thing.
    """


def service_crash(point: str) -> None:
    """Die at a named service fault point (never returns).

    ``repro jobs serve`` exports :data:`HARD_EXIT_ENV` so its fault
    points kill the process outright, exactly like ``kill -9`` —
    buffered file data that was never fsynced is lost.  Everywhere else
    (in-process tests) the crash is :class:`SimulatedCrash`.
    """
    if os.environ.get(HARD_EXIT_ENV):
        os._exit(KILL_STATUS)
    raise SimulatedCrash(point)


@dataclass(frozen=True)
class FaultPlan:
    """A scripted failure schedule for one routing session.

    ``*_on_task`` fields compare against the session-global speculative
    task index (0-based, monotonically increasing across batches,
    passes and re-dispatches): the fault is *eligible* for every task
    whose index is >= the threshold and fires until its ``*_times``
    budget is claimed.  ``state_dir`` holds the claim markers; without
    it a plan fires on every eligible task (unbounded — only useful for
    faults that are fatal anyway).
    """

    #: kill the worker process (``os._exit``) handling an eligible task;
    #: in-process executors (serial/thread) raise :class:`FaultInjected`
    #: instead, since exiting would take the whole session down
    kill_on_task: Optional[int] = None
    kill_times: int = 1
    #: raise :class:`FaultInjected` from inside the task
    fail_on_task: Optional[int] = None
    fail_times: int = 1
    #: sleep ``delay_seconds`` before routing the task
    delay_on_task: Optional[int] = None
    delay_seconds: float = 0.05
    delay_times: int = 1
    #: garble the next checkpoint written by the session (bad checksum)
    corrupt_checkpoint: bool = False
    #: kill the worker while it materializes a *flat-shipped* (CSR)
    #: graph snapshot — the thaw-and-replay path of
    #: :func:`repro.engine.worker.materialize_graph`, or a PathFinder
    #: task's device overlay; same eligibility rule as
    #: ``kill_on_task`` but fires only for tasks that carry flat
    #: arrays, so it proves the CSR shipping path recovers too
    kill_on_materialize: Optional[int] = None
    materialize_times: int = 1
    #: named service fault point (see :mod:`repro.service.journal` /
    #: :mod:`repro.service.store`) at which to die via
    #: :func:`service_crash` — e.g. ``"journal.append.torn"``
    kill_at: Optional[str] = None
    kill_at_times: int = 1
    #: garble the next job state snapshot written by the job store
    #: (bad checksum), proving recovery falls back to the journal
    corrupt_job_state: bool = False
    #: marker directory bounding how often each fault fires
    state_dir: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_FAULTS``; None when unset.

        The format is comma-separated ``key=value`` pairs::

            REPRO_FAULTS="kill=0,kill_times=1,dir=/tmp/fault-markers"

        Keys: ``kill``, ``kill_times``, ``fail``, ``fail_times``,
        ``delay``, ``delay_seconds``, ``delay_times``,
        ``corrupt_checkpoint`` (0/1) and ``dir`` (the state dir).
        """
        environ = os.environ if environ is None else environ
        spec = environ.get(FAULTS_ENV, "").strip()
        if not spec:
            return None
        kwargs = {}
        mapping = {
            "kill": ("kill_on_task", int),
            "kill_times": ("kill_times", int),
            "fail": ("fail_on_task", int),
            "fail_times": ("fail_times", int),
            "delay": ("delay_on_task", int),
            "delay_seconds": ("delay_seconds", float),
            "delay_times": ("delay_times", int),
            "corrupt_checkpoint": (
                "corrupt_checkpoint",
                lambda v: v not in ("0", "false", ""),
            ),
            "kill_materialize": ("kill_on_materialize", int),
            "materialize_times": ("materialize_times", int),
            "kill_at": ("kill_at", str),
            "kill_at_times": ("kill_at_times", int),
            "corrupt_job_state": (
                "corrupt_job_state",
                lambda v: v not in ("0", "false", ""),
            ),
            "dir": ("state_dir", str),
        }
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or key not in mapping:
                raise ValueError(
                    f"{FAULTS_ENV}: bad entry {part!r} "
                    f"(expected key=value with key in {sorted(mapping)})"
                )
            field, convert = mapping[key]
            kwargs[field] = convert(value)
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _claim(self, kind: str, limit: int) -> bool:
        """Atomically claim one firing slot for ``kind`` (True = fire)."""
        if self.state_dir is None:
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        for slot in range(limit):
            marker = os.path.join(self.state_dir, f"{kind}-{slot}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                return True
            except FileExistsError:
                continue
        return False

    def fired(self, kind: str) -> int:
        """How many times the ``kind`` fault has fired so far."""
        if self.state_dir is None or not os.path.isdir(self.state_dir):
            return 0
        return sum(
            1
            for name in os.listdir(self.state_dir)
            if name.startswith(f"{kind}-")
        )

    def inject(self, task_index: int) -> None:
        """Fire whatever faults are due for ``task_index`` (worker side)."""
        if (
            self.delay_on_task is not None
            and task_index >= self.delay_on_task
            and self._claim("delay", self.delay_times)
        ):
            time.sleep(self.delay_seconds)
        if (
            self.fail_on_task is not None
            and task_index >= self.fail_on_task
            and self._claim("fail", self.fail_times)
        ):
            raise FaultInjected(
                f"injected task failure (task index {task_index})"
            )
        if (
            self.kill_on_task is not None
            and task_index >= self.kill_on_task
            and self._claim("kill", self.kill_times)
        ):
            self._kill_worker(task_index)

    def inject_materialize(self, task_index: int) -> None:
        """Fire the flat-materialization kill, if due (worker side).

        Called from :func:`repro.engine.worker.materialize_graph` only
        on the flat-shipping path — the moment the worker starts
        thawing the shared CSR snapshot — and before a PathFinder task
        builds its overlay, so recovery is exercised while the task's
        graph exists only as shipped arrays.
        """
        if (
            self.kill_on_materialize is not None
            and task_index >= self.kill_on_materialize
            and self._claim("kill-mat", self.materialize_times)
        ):
            self._kill_worker(task_index)

    def _kill_worker(self, task_index: int) -> None:
        if multiprocessing.parent_process() is not None:
            # real process-pool worker: die without cleanup, exactly
            # like an OOM kill or a segfault would
            os._exit(KILL_STATUS)
        # serial/thread execution shares the session's process —
        # exiting would kill the run we are trying to test, so the
        # closest in-process approximation is an abrupt exception
        raise FaultInjected(
            f"injected worker kill downgraded to an exception "
            f"(task index {task_index} ran in-process)"
        )

    def should_corrupt_checkpoint(self) -> bool:
        """Claim the one-shot checkpoint-corruption fault (writer side)."""
        return self.corrupt_checkpoint and self._claim("corrupt", 1)

    def should_crash_at(self, point: str) -> bool:
        """Claim a firing slot for the named service fault point.

        The caller decides *how* to die (usually straight through
        :func:`service_crash`; the journal's torn-write point first
        writes half a record to model a mid-append power loss).
        """
        return self.kill_at == point and self._claim(
            f"at-{point}", self.kill_at_times
        )

    def should_corrupt_job_state(self) -> bool:
        """Claim the one-shot job-state-corruption fault (writer side)."""
        return self.corrupt_job_state and self._claim("corrupt-state", 1)
