"""Typed backend errors.

A backend that *cannot* serve a request — wrong processor count for the
cluster it wraps, a grid that does not fit its world size, a platform
missing the primitives it needs — raises
:class:`BackendUnavailableError` instead of a bare ``RuntimeError`` /
``ValueError``. Callers (the session, the auto-selector, the conformance
harness) can then distinguish "this backend is the wrong tool for this
configuration" from genuine argument errors and react: surface the
offending config, fall back to another backend, or skip a test.

The class subclasses :class:`ValueError` so existing ``except ValueError``
call sites keep working while new code can catch the precise type (or
:class:`~repro.errors.ReproError`, the root it shares with the storage
and serving errors).
"""

from __future__ import annotations

from repro.errors import ReproError


class BackendUnavailableError(ReproError, ValueError):
    """A backend cannot execute the requested configuration.

    Parameters
    ----------
    message:
        Human-readable description of what is wrong.
    backend:
        Name of the backend that refused (``"threaded"``, ``"simcluster"``,
        ``"procpool"``, ...).
    config:
        The offending configuration, as a dict (``n_procs``, ``grid``,
        ``dims``, ...). Stored for programmatic inspection and appended to
        the message for humans.
    """

    def __init__(
        self,
        message: str,
        *,
        backend: str = "",
        config: dict | None = None,
    ) -> None:
        self.backend = backend
        self.config = dict(config) if config else {}
        detail = ""
        if self.config:
            pairs = ", ".join(f"{k}={v!r}" for k, v in self.config.items())
            detail = f" [{pairs}]"
        prefix = f"backend {backend!r}: " if backend else ""
        super().__init__(f"{prefix}{message}{detail}")


__all__ = ["BackendUnavailableError"]
