"""The repo benchmark: four closed-loop workloads, end to end and by layer.

``BENCHMARK.json`` at the repo root is the contract; ``README.md`` in this
directory says what every workload and metric means.  The harness drives
the shipped code only through its public entry points - nothing here is
imported by ``src/``.
"""

import os
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def child_env() -> Dict[str, str]:
    """Environment for the interpreters the harness starts: the checkout's
    sources on the path, and a fixed hash seed so set iteration order - and
    with it the event order inside the simulator - is the same on every run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
    env["PYTHONHASHSEED"] = "0"
    return env
