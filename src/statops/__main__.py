"""``python -m statops`` and the ``statops`` console script.

Importing this module sets the process up for a command before numpy loads:
one OpenBLAS thread (no kernel needs more, and commands run in parallel by
forked process), unless the caller set ``OPENBLAS_NUM_THREADS`` to a
non-empty value (OpenBLAS reads an empty one as unset); and the
cyclic GC off during the imports, then the import heap frozen out of its
reach, as the gc docs advise for a process that forks.  Importing
``statops`` or ``statops.cli`` changes neither.
"""

import gc
import os

if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
gc.disable()
from statops.cli import entrypoint  # noqa: E402  (numpy loads after the line above)

gc.freeze()
gc.enable()

if __name__ == "__main__":
    entrypoint()
