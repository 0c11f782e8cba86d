"""Typed exception hierarchy for the public service surface.

Every error a *public* entry point in ``repro.serve``, ``repro.gateway``
or ``repro.api`` can raise derives from :class:`ReproError` — the
``EXC001`` static checker (see ``docs/STATIC_ANALYSIS.md``) enforces
this, so callers can catch one root type instead of guessing which
stdlib exception a given failure mode maps to.

Backwards compatibility is kept through multiple inheritance: each
typed error also subclasses the stdlib exception the call site raised
historically (``RequestError`` is still a ``ValueError``,
``JobTimeoutError`` still a ``TimeoutError``, ...), so existing
``except ValueError`` / ``pytest.raises(TimeoutError)`` code keeps
working unchanged.

Below the service surface, decoders raise :class:`CorruptPayloadError`
for bytes no encoder in this package could have written.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "RequestError",
    "StateError",
    "SchedulerStoppedError",
    "UnknownJobError",
    "JobTimeoutError",
    "CorruptPayloadError",
]


class ReproError(Exception):
    """Root of every typed error raised by public service entry points."""


class RequestError(ReproError, ValueError):
    """A request payload or argument failed validation.

    Also a ``ValueError`` so pre-existing validation call sites keep
    their historical contract.
    """


class StateError(ReproError, RuntimeError):
    """An operation was invoked in a state that cannot serve it."""


class SchedulerStoppedError(StateError):
    """Submission refused because the scheduler has been stopped."""

    def __init__(self, message: str = "scheduler is stopped") -> None:
        super().__init__(message)


class UnknownJobError(ReproError, KeyError):
    """A job id that the service does not (or no longer does) track."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return Exception.__str__(self)


class JobTimeoutError(ReproError, TimeoutError):
    """A wait on a job (or a drain) exceeded its deadline."""


class CorruptPayloadError(ReproError, ValueError):
    """Compressed bytes are truncated, inconsistent or outside format limits.

    Raised by decoders *before* a declared size is trusted for an
    allocation, so hostile input costs neither time nor memory.  Also a
    ``ValueError``, which is what decoders raised historically.
    """
