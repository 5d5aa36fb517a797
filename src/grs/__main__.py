"""``python -m grs`` and the ``grs`` command: the CLI (``grs.cli``).

The OpenBLAS, OpenMP and MKL thread counts default to one before numpy
loads: AC validation factors matrices of a few hundred rows, where a BLAS
thread pool costs more than it saves.  A value set in the environment wins.
"""

import os
import sys


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from grs.cli import main as cli_main  # numpy loads here

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
