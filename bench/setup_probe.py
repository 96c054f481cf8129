"""Set-up time of one fresh process: import, parse and validate, build the space.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG_PATH
Prints the elapsed seconds as the only line of standard output.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from diracnorm.cli import load_config  # noqa: E402
from diracnorm.spectral_core import DiracSpace  # noqa: E402

cfg = load_config(sys.argv[2])
DiracSpace(cfg.grid, cfg.mass)
print(repr(time.perf_counter() - start))
