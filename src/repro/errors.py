"""The one root of every typed error this package raises.

A leaf module (it imports nothing from ``repro``) so storage, backends
and serve can all parent their errors here without an import cycle.
"""


class ReproError(Exception):
    """Base of all typed ``repro`` errors; ``except ReproError`` catches
    backend, storage, admission and serving failures alike."""
