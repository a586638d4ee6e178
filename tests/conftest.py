"""Test-session setup: pin BLAS to one thread before numpy is imported.

The networks trained here are small (batch 128, widths up to 128). A second
OpenBLAS thread makes their matmuls slower, and one thread per core
oversubscribes a shared machine. A value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
