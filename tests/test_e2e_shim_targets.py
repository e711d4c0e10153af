"""The end-to-end benchmark's timing shim still finds every layer it wraps.

``benchmarks/e2e/tracing.py`` patches methods by name to time each layer;
a renamed or deleted target would otherwise surface only when the traced
benchmark pass runs.
"""

import pytest

from benchmarks.e2e.tracing import _shim_table

SHIMS = [(span, owner, attr) for span, owner, attr, _counter in _shim_table()]


@pytest.mark.parametrize(
    "span, owner, attr", SHIMS, ids=[f"{span}:{attr}" for span, _, attr in SHIMS]
)
def test_shim_target_resolves(span, owner, attr):
    target = getattr(owner, attr, None)
    assert callable(target), f"{span}: {owner!r} has no callable {attr!r}"
