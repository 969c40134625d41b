"""Set-up as a user pays it: a fresh interpreter imports the package and,
given a config, builds the network.  Prints one JSON line of timings.

    python3 perfbench/setup_probe.py [CONFIG]
"""
import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

# the scipy modules starscatter imports, first, so their share shows apart
import numpy  # noqa: E402,F401
import scipy.integrate  # noqa: E402,F401
import scipy.interpolate  # noqa: E402,F401
import scipy.sparse  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401

t1 = time.perf_counter()
import starscatter.cli  # noqa: E402

t2 = time.perf_counter()
if len(sys.argv) > 1:
    starscatter.cli.load_network(sys.argv[1])
print(json.dumps({"import_scipy_s": t1 - t0, "import_s": t2 - t0,
                  "module": starscatter.cli.__file__}))
