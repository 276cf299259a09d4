"""The ``BENCHMARK.json`` command: ``python3 benchmarks/e2e/run.py
--workload W --seed N --seconds S --trace 0|1`` from the repository root.

Runs as a plain script, so it puts the program (``src/``) and this
package on the import path itself, and re-executes once with hashing
fixed: the one-shot workloads run the program inside this process, and
``PYTHONHASHSEED=0`` is part of the stated load shape.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.e2e.cli import contract_main

    raise SystemExit(contract_main())
