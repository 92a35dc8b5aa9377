"""Best-arm identification for bounded rewards with anytime KL confidence sequences."""

import os
import sys


class InputError(ValueError):
    """An argument or input file that breaks a documented rule; the command line exits 1 on it."""


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
