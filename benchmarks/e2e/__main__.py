"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``.

Run as a script (the way ``BENCHMARK.json`` names it) there is no package
context, so the checkout's root goes on the path first; the worker and
daemon children get it through their environment.
"""

import os
import sys

if not __package__:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path.insert(0, os.path.dirname(os.path.dirname(here)))

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
