"""Best-arm identification for bounded rewards with anytime KL confidence sequences."""

import os
import sys
from operator import attrgetter


class InputError(ValueError):
    """An argument or input file that breaks a documented rule; the command line exits 1 on it."""


class Frozen:
    """Base of the package's immutable records: equal, hashed and shown by ``_fields``.

    Each subclass names its fields in ``_fields`` and writes its own
    ``__init__``, its rules first, then one ``object.__setattr__`` per
    attribute: a write through ``__dict__`` makes CPython 3.11 build the
    instance's dict, after which every attribute read (an arm's per-pull
    ``p``) is slower.  Attributes outside ``_fields`` (a scheme's caches)
    are neither compared, shown nor pickled: a record pickles as its class
    and field values, in ``__init__``'s order, so unpickling rebuilds it
    through ``__init__`` and its reads stay fast in a ``--parallel`` worker.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)  # the fields' values, read in one call

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, field) for field in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"


# lilklucb makes no threaded BLAS call (its one LAPACK call, table1's polyfit,
# fits a few points), so numpy is loaded with OpenBLAS on one thread: starting
# the default pool of one thread per core takes about half of the import.  A
# thread count set by the user, or a numpy imported first, is left as it is.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def load_numpy():
    """The numpy module, imported on the first call; no module of lilklucb imports it itself.

    The scalar commands never call this, so they start without numpy; the
    array code calls it where it starts, and binds the module to a local
    name, so an attribute costs what a global's would.
    """
    if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]  # no child process inherits it
    import numpy
    return numpy
