"""Host-speed probe: times a fixed interpreter kernel twice a second.

The host's CPU speed drifts by tens of percent within seconds (other
tenants share the cores), and every timing of the program drifts with it.
``run.py`` runs this probe beside each workload; every half second it
prints ``<monotonic ns> <kernel CPU seconds>``.  A timing multiplied by
``REFERENCE_CALIBRATION_S`` over the median kernel time during that timing
is what it would have been at the reference speed.  The kernel never
touches the program, so a change to the program cannot move it.  Its CPU
time, not its wall time, is taken, so the probe waiting for a busy core
does not count as a slow core.

    python3 perfbench/speed_probe.py     # runs until terminated
"""

import sys
import time

INTERVAL_S = 0.5


def kernel() -> float:
    """CPU seconds of one fixed pure-interpreter kernel (~10 ms)."""
    started = time.process_time()
    total = 0
    for value in range(80_000):
        total += value * value % 7
    table = {}
    for value in range(30_000):
        table[value % 997] = table.get(value % 997, 0) + value
    return time.process_time() - started


def main() -> int:
    while True:
        cpu_s = kernel()
        print(time.monotonic_ns(), repr(cpu_s), flush=True)
        time.sleep(INTERVAL_S)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (KeyboardInterrupt, BrokenPipeError):
        sys.exit(0)
