"""Time one cold start: import tjurina and answer one warm-up request.

Usage: python3 bench/setup_probe.py <tjurina CLI arguments...>
Prints the elapsed seconds and the request's exit code.  Only the standard
library modules loaded at interpreter start are imported before the clock
starts, so the package pays for its own imports.
"""

import io
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
t0 = time.perf_counter()
from tjurina import cli  # noqa: E402

code = cli.main(sys.argv[1:], out=io.StringIO())
print(time.perf_counter() - t0, code)
