"""The benchmark harness's frozen surface, checked in tier-1.

``bench/`` measures the layers from outside: its traced pass swaps
public methods for timing wrappers, looked up in the *owning class's
own* ``__dict__`` (``bench/spans.py::Tracer.install``).  A refactor that
moves one of those methods to a base class, renames it, or deletes it
breaks the benchmark — but ``bench/tests`` is outside ``testpaths``, so
only this file makes that fail ``pytest -x -q``.
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"
)


@pytest.fixture
def bench_modules(monkeypatch):
    """``bench/layers.py`` and ``bench/spans.py``, importable for one
    test and gone from ``sys.modules`` after it."""
    monkeypatch.syspath_prepend(BENCH)
    loaded = set(sys.modules)
    import layers
    import spans

    yield layers, spans
    for name in ("layers", "spans"):
        if name not in loaded:
            sys.modules.pop(name, None)


def test_traced_pass_installs_and_restores_every_wrapped_method(bench_modules):
    from repro.dist.engine import DistributedEngine
    from repro.rrset.sharded import ShardedSamplingEngine

    layers, spans = bench_modules
    tracer = spans.Tracer()
    try:
        layers.install(tracer)  # KeyError here: a wrapped name left its class
        originals = {
            (owner, attr): original for owner, attr, original in tracer._patches
        }
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.remove()
    assert originals and not tracer._patches
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    # One prefetch body, present in both class dicts: a ``super()``
    # override on the distributed engine would open two spans per call
    # and double ``engine.prefetch_chunks``.
    assert (
        originals[DistributedEngine, "prefetch"]
        is originals[ShardedSamplingEngine, "prefetch"]
    )
