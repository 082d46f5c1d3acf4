"""Survival analysis under dependent censoring.

Weibull proportional-hazards marginals for the event and censoring times are
coupled through a parametric Archimedean copula and fit jointly by maximum
likelihood, so the event-time model stays consistent when censoring is
informative.

On glibc, importing the package pins malloc's mmap and trim thresholds at
32 MiB and 64 MiB, the ceilings of glibc's own dynamic rule for them.
Left at their 128 KiB start, every likelihood evaluation maps its
temporaries fresh and hands them back to the OS when it frees them, paying
hundreds of minor page faults per evaluation of a fit loop.
"""
import ctypes
import sys

__version__ = "0.1.0"

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return  # not glibc, e.g. musl
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc_thresholds()
