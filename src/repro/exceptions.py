"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch a single base class at the application boundary while the library
itself raises the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent configuration was supplied."""


class BudgetError(ConfigurationError):
    """The crowdsourcing budget cannot satisfy the requested task plan.

    Raised, for example, when the budget affords fewer comparisons than the
    minimum required for a connected task graph (``n - 1`` edges) or more
    than all ``C(n, 2)`` pairs.
    """


class GraphError(ReproError):
    """A structural graph invariant was violated (unknown vertex, bad edge)."""


class VertexNotFoundError(GraphError):
    """The requested vertex does not exist in the graph."""


class AssignmentError(ReproError):
    """Task-assignment (HIT generation) failed to satisfy its requirements."""


class InferenceError(ReproError):
    """Result inference failed (no Hamiltonian path, empty vote set, ...)."""


class ConvergenceError(InferenceError):
    """An iterative algorithm exhausted its iteration budget without
    converging and the caller requested strict convergence."""


class DataFormatError(ReproError):
    """An external data file (e.g. AMT CSV export) is malformed."""


class DegenerateGraphWarning(UserWarning):
    """The comparison graph is degenerate for the requested computation.

    Emitted (not raised) by the sparse least-squares engines when the
    comparison graph is disconnected: scores are then only determined
    within each connected component, so the engine applies per-component
    anchoring with a deterministic, seeded cross-component tie-break and
    records the condition in the result metadata instead of silently
    returning one arbitrary solution of a singular system.
    """


class ExecutionBackendError(ReproError):
    """A compute-fanout backend (:mod:`repro.workers.backends`) failed."""


class WorkerCrashedError(ExecutionBackendError):
    """A worker process died (signal, ``os._exit``, OOM kill) mid-task.

    The pool respawns a replacement and keeps running the remaining
    tasks; the crashed task surfaces this error.  Treated as transient
    by the batch service's retry classifier — a crash is usually
    environmental (OOM killer, operator signal), not a property of the
    task itself.
    """


class TaskTimeoutError(ExecutionBackendError):
    """A task exceeded the backend's per-task deadline.

    The process backend kills the worker running the task (a real
    cancellation); the thread backend abandons the worker thread
    (Python cannot kill threads); the serial backend cannot enforce
    per-task deadlines at all and never raises this.
    """


class SessionError(ReproError):
    """A streaming ranking session operation failed."""


class SessionNotFoundError(SessionError):
    """The requested session id is unknown (never created or evicted)."""


class SessionStoppedError(SessionError):
    """Votes were submitted to a session that already early-stopped.

    The session's ranking is still readable; only further ingestion is
    rejected.  Create a new session to keep collecting.
    """


class SessionLimitError(SessionError):
    """The session manager is at its session cap and nothing is evictable."""
