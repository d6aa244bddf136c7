"""relspam: spam classification that refines per-message predictions with
relational structure (stacked learning and joint probabilistic inference
over groups of related messages).

Importing the package sets the BLAS libraries' thread counts to 1 where
the environment leaves them unset, which takes effect if numpy is imported
after it. The stages run their subsets in parallel processes (`relspam.cli`),
where a threaded BLAS would compete with the other workers for the same
cores, and a sum on one thread gives the same bits whatever the core count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
