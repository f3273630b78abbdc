"""The memory a job may allocate, read before it allocates.

The engine, before a run, ``verify``, A3 or an acquisition grid, the
lattice, before it enumerates points or fills a coupling table, and the
thermo solver, before each pass, estimate their peak and refuse, with a
ValueError, one that exceeds the available memory.
"""

from __future__ import annotations

import os


def available_bytes() -> int:
    """MemAvailable from /proc/meminfo, else the free physical pages."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_fits(what: str, need: float) -> None:
    """Refuse (ValueError) ``what`` if its estimated ``need`` in bytes
    exceeds the available memory; the message gives both."""
    available = available_bytes()
    if need > available:
        raise ValueError(f"{what} would allocate an estimated "
                         f"{need / 2**20:.0f} MiB, but only "
                         f"{available / 2**20:.0f} MiB is available")
