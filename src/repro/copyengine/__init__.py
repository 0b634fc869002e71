"""The copy layer and the sliced-copy microbenchmark (Section 4).

:mod:`repro.copyengine.primitives` decides every copy's store path
(``t``, ``nt``, ``memmove`` or Algorithm 1's ``adaptive``) and charges
the kernel-assisted (CMA-style) copy of the vendor baselines;
:mod:`repro.copyengine.stream` is the sliced STREAM-COPY
microbenchmark behind Table 4 and Figure 3.
"""

from repro.copyengine.primitives import copy, kernel_copy_time, resolve_nt
from repro.copyengine.stream import SlicedCopyBenchmark, SlicedCopyResult

__all__ = [
    "copy",
    "kernel_copy_time",
    "resolve_nt",
    "SlicedCopyBenchmark",
    "SlicedCopyResult",
]
