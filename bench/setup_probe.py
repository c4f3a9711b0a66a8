"""Time one cold set-up: import evowaves, parse a scenario, build its EvoProblem.

Usage: python3 bench/setup_probe.py <repo root> <scenario file>
Prints the seconds taken.  Run in a fresh interpreter so the import is cold.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, f"{sys.argv[1]}/src")
import evowaves.config  # noqa: E402

evowaves.config.load_scenario(sys.argv[2]).build()
print(time.perf_counter() - start)
