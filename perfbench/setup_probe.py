"""One cold start of the user path, timed by the runner from outside.

Run as `python3 perfbench/setup_probe.py WORKLOAD SEED CONFIG_PATH`. The
probe imports numpy and bicopterlab, writes and parses the workload's
config, places the gains, and then prints the CLOCK_MONOTONIC time at which
the first operation could run. The runner took the same clock just before
starting the process, so the difference is set-up time from process start.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402,F401  (part of the cost being measured)

from bicopterlab.cli import parse_config  # noqa: E402
from bicopterlab.tracker import place_gains  # noqa: E402

from perfbench.workloads import config_text  # noqa: E402


def main(workload: str, seed: str, cfg_path: str) -> None:
    Path(cfg_path).write_text(config_text(workload, int(seed)))
    cfg = parse_config(Path(cfg_path).read_text())
    place_gains(cfg.poles)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
