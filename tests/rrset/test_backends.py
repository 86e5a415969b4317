"""The blocked BFS's compiled kernel and the names kept for ``bench/``.

``repro.rrset.backends`` holds one driver over one compiled batch BFS.
The driver is pinned against the numpy reference in
``test_driver_equivalence.py`` and against recorded digests in
``test_golden_blocks.py``; this file covers the kernel paths random
graphs may not reliably hit, the kernel's build, and the one-value
``backend`` knob: the recorded name is ``"numpy"`` and every other
value is refused.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro import _native
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.backends import (
    NumpyBackend, drive_blocked, resolve_backend, run_blocked,
)


def _graph_and_probs(seed=5, n=80, p=0.05, prob=0.12):
    graph = erdos_renyi(n, p, seed=seed)
    probs = np.asarray(constant_probabilities(graph, prob), dtype=np.float64)
    return graph, probs


def _problem(seed: int, num_ads: int = 2, budget: float = 6.0):
    graph = erdos_renyi(60, 0.05, seed=seed)
    catalog = AdCatalog(
        [Advertiser(name=f"a{i}", budget=budget, cpe=1.0) for i in range(num_ads)]
    )
    return AdAllocationProblem(
        graph,
        catalog,
        constant_probabilities(graph, 0.08),
        0.4,
        AttentionBounds.uniform(graph.num_nodes, num_ads),
    )


class TestResolution:
    def test_names_resolve(self):
        assert resolve_backend("numpy").name == "numpy"
        assert isinstance(resolve_backend("numpy"), NumpyBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="backend must be 'numpy'"):
            resolve_backend("cuda")

    def test_auto_is_refused(self):
        with pytest.raises(ConfigurationError, match="backend must be 'numpy'"):
            resolve_backend("auto")


class TestTIRMBackendInvariance:
    _kwargs = dict(
        seed=3, initial_pilot=300, min_rr_sets_per_ad=300,
        max_rr_sets_per_ad=2_000, epsilon=0.25,
    )

    def test_stats_and_provenance_record_resolved_backend(self):
        problem = _problem(9)
        result = TIRMAllocator(backend="numpy", **self._kwargs).allocate(problem)
        assert result.stats["backend"] == "numpy"
        assert result.allocation.provenance["backend"] == "numpy"

    def test_rejects_unknown_backend_at_construction(self):
        with pytest.raises(ConfigurationError, match="backend"):
            TIRMAllocator(backend="cuda")

    def test_auto_is_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="backend must be 'numpy'"):
            TIRMAllocator(backend="auto")


class TestKernelEdgeCases:
    """Level-op paths the random graphs may not reliably hit."""

    def test_isolated_roots(self):
        graph = erdos_renyi(10, 0.0, seed=0)  # no edges at all
        probs = np.empty(0, dtype=np.float64)
        members, lengths = drive_blocked(
            graph, probs, np.random.default_rng(0), 5
        )
        assert lengths.tolist() == [1] * 5  # each set is just its root
        assert members.size == 5

    def test_zero_count(self):
        graph, probs = _graph_and_probs()
        members, lengths = drive_blocked(
            graph, probs[graph.in_edge_ids], np.random.default_rng(0), 0
        )
        assert members.size == 0 and lengths.size == 0

    def test_dense_probabilities_saturate_sets(self):
        """p=1 edges: every node that reaches the root joins its set
        exactly once, so the dedup works hard."""
        graph, probs = _graph_and_probs(seed=2, n=30, p=0.2, prob=1.0)
        roots = np.arange(graph.num_nodes)
        members, lengths = drive_blocked(
            graph, probs[graph.in_edge_ids], np.random.default_rng(1),
            roots.size, roots=roots,
        )
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        for root, start, length in zip(roots, starts, lengths):
            reached, frontier = {int(root)}, [int(root)]
            while frontier:
                v = frontier.pop()
                for u in graph.in_sources[graph.in_indptr[v]:graph.in_indptr[v + 1]]:
                    if int(u) not in reached:
                        reached.add(int(u))
                        frontier.append(int(u))
            got = members[start:start + length].tolist()
            assert got[0] == root
            assert len(got) == len(set(got)) and set(got) == reached


class TestRunBlocked:
    """The many-task driver: each task's block equals its one-task
    :func:`drive_blocked` block, in task order, whatever the widths."""

    COUNTS = (0, 23, 5, 0, 41, 12)

    def _tasks(self, in_probs):
        return [
            (np.random.default_rng(seed), in_probs, count)
            for seed, count in enumerate(self.COUNTS)
        ]

    @pytest.mark.parametrize("threads", [0, 1, 3])
    def test_tasks_of_any_width_give_their_own_blocks_in_order(self, threads):
        graph, probs = _graph_and_probs(seed=4, prob=0.3)
        in_probs = probs[graph.in_edge_ids]
        expected = [
            drive_blocked(
                graph, in_probs, np.random.default_rng(seed), count, batch_size=8
            )
            for seed, count in enumerate(self.COUNTS)
        ]
        head = (np.arange(3, dtype=np.int32), np.array([3]))
        with ThreadPoolExecutor(max(threads, 1)) as executor:
            got = list(run_blocked(
                graph, self._tasks(in_probs), batch_size=8,
                helpers=(executor, threads) if threads else None,
                head=lambda: head,
            ))
        assert got[0] is head and len(got) == len(self.COUNTS) + 1
        for (members, lengths), (want_members, want_lengths) in zip(got[1:], expected):
            assert members.tobytes() == want_members.tobytes()
            assert lengths.tolist() == want_lengths.tolist()

    def test_a_task_leaves_before_a_wider_one_finishes(self):
        """Tasks 0-2 (the widest 23 sets: three rounds of 8) are yielded
        while the 41-set task still has three rounds to run."""
        graph, probs = _graph_and_probs(seed=4, prob=0.3)
        tasks = self._tasks(probs[graph.in_edge_ids])
        blocks = run_blocked(graph, tasks, batch_size=8)
        for _ in range(3):
            next(blocks)
        wide = tasks[4][0].bit_generator
        mid = wide.state["state"]["state"]
        list(blocks)
        assert wide.state["state"]["state"] != mid


class TestKernelBuild:
    """Every C source the package ships is compiled on first use into one
    library in a per-user cache, keyed by a hash of all the sources and
    the command."""

    @pytest.fixture
    def sources(self, monkeypatch, tmp_path):
        """Copies of the shipped sources, built into an empty cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        copies = []
        for source in _native.SOURCES:
            copy = tmp_path / source.parent.name / source.name
            copy.parent.mkdir(exist_ok=True)
            copy.write_bytes(source.read_bytes())
            copies.append(copy)
        monkeypatch.setattr(_native, "SOURCES", tuple(copies))
        return copies

    def test_builds_into_an_empty_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        built = _native.build()
        assert built.parent == tmp_path / "repro" and built.exists()
        assert [p.name for p in built.parent.iterdir()] == [built.name]
        assert _native.build() == built  # found, not rebuilt

    def test_ships_every_source(self):
        names = {(p.parent.name, p.name) for p in _native.SOURCES}
        assert names == {
            ("rrset", "_bfs.c"), ("rrset", "_pool.c"), ("algorithms", "_select.c")
        }
        assert all(p.exists() for p in _native.SOURCES)

    def test_editing_any_one_source_rebuilds(self, sources):
        built = {_native.build()}
        for source in sources:
            source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
            again = _native.build()
            assert again not in built and again.exists()
            built.add(again)
        assert {p.name for p in built} == {
            p.name for p in next(iter(built)).parent.iterdir()
        }

    def test_a_failed_build_names_the_compiler(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        config = _native.sysconfig.get_config_var
        monkeypatch.setattr(
            _native.sysconfig, "get_config_var",
            lambda name: "no-such-cc -pthread" if name == "CC" else config(name),
        )
        with pytest.raises(ConfigurationError, match="compiler 'no-such-cc -pthread'"):
            _native.build()
        assert list((tmp_path / "repro").iterdir()) == []  # no partial output

    def test_concurrent_first_calls_build_and_load_once(self, monkeypatch, tmp_path):
        """Threads racing into :func:`library` on an empty cache: one
        compiler run, one loaded handle."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native, "_loaded", None)
        runs = []
        run = _native.subprocess.run

        def counting_run(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(_native.subprocess, "run", counting_run)
        barrier = threading.Barrier(4)
        handles = []

        def first_call():
            barrier.wait()
            handles.append(_native.library())

        threads = [threading.Thread(target=first_call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(runs) == 1
        assert len(handles) == 4 and len({id(h) for h in handles}) == 1
        assert handles[0].repro_bfs_run.restype is _native._I64

    def test_a_source_that_does_not_compile_leaves_nothing(self, sources, tmp_path):
        sources[-1].write_bytes(b"this is not C;\n")
        compiler = _native.sysconfig.get_config_var("CC") or "cc"
        with pytest.raises(ConfigurationError, match=f"compiler {compiler!r}"):
            _native.build()
        assert list((tmp_path / "cache" / "repro").iterdir()) == []
