"""Rule-level tests for the determinism-contract linter.

Each rule gets a seeded fixture tree (one violation per rule, written
under a ``repro/``-shaped layout so the config's module matching
applies) plus targeted positive/negative cases for its semantics.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis import lint_file, lint_paths
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig, module_key
from repro.analysis.rules import ALL_RULES, default_rules, rules_by_code


def _write(tmp_path, relpath: str, source: str):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def _codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# The fixture tree: one violation per rule, plus a clean module
# ----------------------------------------------------------------------
FIXTURES = {
    "R101": (
        "repro/diffusion/stray_rng.py",
        "import numpy as np\n"
        "\n"
        "def draw():\n"
        "    rng = np.random.default_rng(3)\n"
        "    return rng.random(4)\n",
        4,
    ),
    "R102": (
        "repro/algorithms/clocked.py",
        "import time\n"
        "\n"
        "def entropy():\n"
        "    return int(time.time())\n",
        4,
    ),
    "R103": (
        "repro/rrset/hotset.py",
        "def splice(ids):\n"
        "    for member in set(ids):\n"
        "        yield member\n",
        2,
    ),
    "R104": (
        "repro/dist/leaky.py",
        "import socket\n"
        "\n"
        "def pair(data):\n"
        "    left, right = socket.socketpair()\n"
        "    left.sendall(data)\n"
        "    return right.recv(len(data))\n",
        4,
    ),
    "R105": (
        "repro/evaluation/poker.py",
        "def peek(pool):\n"
        "    return pool._members[:10]\n",
        2,
    ),
}

CLEAN = (
    "repro/evaluation/clean.py",
    "def total(values):\n"
    "    return sum(sorted(values))\n",
)


@pytest.fixture
def fixture_tree(tmp_path):
    for relpath, source, _ in FIXTURES.values():
        _write(tmp_path, relpath, source)
    _write(tmp_path, *CLEAN)
    return tmp_path


def test_fixture_tree_one_finding_per_rule(fixture_tree):
    findings = lint_paths([fixture_tree])
    assert sorted(_codes(findings)) == sorted(FIXTURES)
    by_code = {f.code: f for f in findings}
    for code, (relpath, _, line) in FIXTURES.items():
        finding = by_code[code]
        assert finding.path.replace("\\", "/").endswith(relpath)
        assert finding.line == line, (code, finding)


def test_rule_registry_is_complete():
    assert len(ALL_RULES) == 5
    assert sorted(rules_by_code()) == ["R101", "R102", "R103", "R104", "R105"]
    for rule in default_rules():
        assert rule.code and rule.description


# ----------------------------------------------------------------------
# Module identity / config
# ----------------------------------------------------------------------
def test_module_key_suffix_from_repro_root():
    assert module_key("src/repro/utils/rng.py") == "repro/utils/rng.py"
    assert module_key("/a/b/repro/rrset/pool.py") == "repro/rrset/pool.py"
    assert module_key("/tmp/fixture/bad.py") == "bad.py"
    # The *last* repro component wins for nested checkouts.
    assert module_key("repro/vendor/repro/x.py") == "repro/x.py"


def test_default_config_matches_contract_seams():
    cfg = DEFAULT_CONFIG
    assert cfg.is_rng_seam("repro/utils/rng.py")
    assert cfg.is_rng_seam("repro/rrset/sampler.py")
    # The blocked-BFS driver only draws from generators it is passed.
    assert not cfg.is_rng_seam("repro/rrset/backends.py")
    assert not cfg.is_rng_seam("repro/diffusion/spread.py")
    assert cfg.is_seed_source_seam("repro/utils/rng.py")
    assert cfg.is_seed_source_seam("repro/store/catalog.py")
    assert cfg.is_seed_source_seam("repro/service/jobs.py")
    assert not cfg.is_seed_source_seam("repro/rrset/sampler.py")
    assert cfg.is_service("repro/service/server.py")
    assert cfg.is_service("repro/service/pool.py")
    assert not cfg.is_service("repro/store/catalog.py")
    assert cfg.is_hot_path("repro/rrset/pool.py")
    assert cfg.is_hot_path("repro/rrset/backends.py")
    assert cfg.is_hot_path("repro/algorithms/tirm.py")
    assert cfg.is_hot_path("repro/algorithms/session.py")
    assert not cfg.is_hot_path("repro/algorithms/greedy.py")
    assert cfg.is_pool_module("repro/rrset/pool.py")


def test_extra_allowed_widens_a_seam(tmp_path):
    path = _write(tmp_path, "repro/widgets/w.py", FIXTURES["R101"][1])
    assert _codes(lint_file(path)) == ["R101"]
    widened = AnalysisConfig(extra_allowed={"R101": {"repro/widgets/w.py"}})
    assert lint_file(path, config=widened) == []


# ----------------------------------------------------------------------
# R101 — RNG discipline
# ----------------------------------------------------------------------
def test_r101_allows_the_seams(tmp_path):
    for seam in (
        "repro/utils/rng.py",
        "repro/rrset/sampler.py",
    ):
        path = _write(tmp_path, seam, FIXTURES["R101"][1])
        assert "R101" not in _codes(lint_file(path))


def test_r101_catches_from_import_and_stdlib_random(tmp_path):
    path = _write(
        tmp_path,
        "repro/topics/t.py",
        "from numpy.random import default_rng\n"
        "import random\n"
        "g = default_rng()\n"
        "x = random.random()\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R101"]
    assert [f.line for f in findings] == [3, 4]


def test_r101_ignores_deterministic_stream_classes(tmp_path):
    # Constructing counter-based machinery from explicit seeds is what
    # the seams themselves do — not a discipline violation elsewhere.
    path = _write(
        tmp_path,
        "repro/topics/det.py",
        "import numpy as np\n"
        "seq = np.random.SeedSequence(123)\n"
        "bits = np.random.Philox(seq)\n",
    )
    assert "R101" not in _codes(lint_file(path))


# ----------------------------------------------------------------------
# R102 — nondeterministic seed sources
# ----------------------------------------------------------------------
def test_r102_entropyless_seed_sequence(tmp_path):
    path = _write(
        tmp_path,
        "repro/topics/seeds.py",
        "import numpy as np\n"
        "fresh = np.random.SeedSequence()\n"
        "explicit_none = np.random.SeedSequence(entropy=None)\n"
        "seeded = np.random.SeedSequence(42)\n"
        "keyword = np.random.SeedSequence(entropy=42)\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R102"]
    assert [f.line for f in findings] == [2, 3]


def test_r102_entropy_sources_and_seam(tmp_path):
    source = (
        "import os\n"
        "import time\n"
        "a = os.urandom(16)\n"
        "b = time.time_ns()\n"
    )
    path = _write(tmp_path, "repro/graph/g.py", source)
    findings = [f for f in lint_file(path) if f.code == "R102"]
    assert [f.line for f in findings] == [3, 4]
    seam = _write(tmp_path, "repro/utils/rng.py", source)
    assert "R102" not in _codes(lint_file(seam))


# ----------------------------------------------------------------------
# R103 — unordered iteration in hot paths
# ----------------------------------------------------------------------
def test_r103_only_fires_in_hot_paths(tmp_path):
    source = FIXTURES["R103"][1]
    cold = _write(tmp_path, "repro/advertising/c.py", source)
    assert "R103" not in _codes(lint_file(cold))
    hot = _write(tmp_path, "repro/algorithms/tirm.py", source)
    assert "R103" in _codes(lint_file(hot))


def test_r103_covers_the_session_select_loop(tmp_path):
    """The SELECT/GROW loop lives in ``algorithms/session.py``: walking
    the active ads out of a set there is a selection-order bug."""
    path = _write(
        tmp_path,
        "repro/algorithms/session.py",
        "def select(states, candidate):\n"
        "    best = None\n"
        "    for ad in set(states):\n"
        "        best = candidate(ad) or best\n"
        "    return best\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R103"]
    assert [f.line for f in findings] == [3]


def test_r103_order_insensitive_consumers_are_fine(tmp_path):
    path = _write(
        tmp_path,
        "repro/rrset/ok.py",
        "def stats(ids, other):\n"
        "    pool = set(ids)\n"
        "    a = sorted(pool.union(other))\n"
        "    b = len({1, 2})\n"
        "    c = max(frozenset(ids))\n"
        "    return a, b, c\n",
    )
    assert "R103" not in _codes(lint_file(path))


def test_r103_flags_order_sensitive_sinks(tmp_path):
    path = _write(
        tmp_path,
        "repro/rrset/sinks.py",
        "def bad(ids, other):\n"
        "    a = list(set(ids))\n"
        "    b = [x for x in frozenset(ids)]\n"
        "    c = ','.join({'x', 'y'})\n"
        "    d = f(*set(ids))\n"
        "    e = list(set(ids).union(other))\n"
        "    return a, b, c, d, e\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R103"]
    assert [f.line for f in findings] == [2, 3, 4, 5, 6]


def test_r103_dict_iteration_not_flagged(tmp_path):
    # Dicts iterate in insertion order; TIRM's marginal-coverage walk
    # depends on it — flagging .values() would outlaw correct code.
    path = _write(
        tmp_path,
        "repro/rrset/dictok.py",
        "def walk(coverage):\n"
        "    total = [v for v in coverage.values()]\n"
        "    for node in coverage:\n"
        "        total.append(node)\n"
        "    return total\n",
    )
    assert "R103" not in _codes(lint_file(path))


# ----------------------------------------------------------------------
# R104 — storage-tier file-handle hygiene
# ----------------------------------------------------------------------
def test_r104_bare_open_in_storage_tier_flagged(tmp_path):
    path = _write(
        tmp_path,
        "repro/store/bad_open.py",
        "def read_header(path):\n"
        "    handle = open(path, 'rb')\n"
        "    return handle.read(64)\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R104"]
    assert len(findings) == 1
    assert "with" in findings[0].message


def test_r104_with_open_in_storage_tier_is_clean(tmp_path):
    path = _write(
        tmp_path,
        "repro/store/good_open.py",
        "def read_header(path):\n"
        "    with open(path, 'rb') as handle:\n"
        "        return handle.read(64)\n",
    )
    assert "R104" not in _codes(lint_file(path))


def test_r104_bare_open_outside_storage_tier_not_flagged(tmp_path):
    path = _write(
        tmp_path,
        "repro/evaluation/loader.py",
        "def read_header(path):\n"
        "    handle = open(path, 'rb')\n"
        "    return handle.read(64)\n",
    )
    assert "R104" not in _codes(lint_file(path))


# ----------------------------------------------------------------------
# R104 — service-tier network-resource hygiene
# ----------------------------------------------------------------------
LEAKY_SOCKET = (
    "import socket\n"
    "\n"
    "def ask(port, message):\n"
    "    sock = socket.create_connection(('127.0.0.1', port))\n"
    "    sock.sendall(message)\n"
    "    return sock.recv(64)\n"
)


def test_r104_leaky_socket_in_service_tier_flagged(tmp_path):
    path = _write(tmp_path, "repro/service/leaky_client.py", LEAKY_SOCKET)
    findings = [f for f in lint_file(path) if f.code == "R104"]
    assert len(findings) == 1
    assert "socket" in findings[0].message
    assert "close" in findings[0].message


def test_r104_leaky_socket_outside_service_tier_not_flagged(tmp_path):
    path = _write(tmp_path, "repro/evaluation/probe.py", LEAKY_SOCKET)
    assert "R104" not in _codes(lint_file(path))


def test_r104_with_managed_socket_is_clean(tmp_path):
    path = _write(
        tmp_path,
        "repro/service/tidy_client.py",
        "import socket\n"
        "\n"
        "def ask(port, message):\n"
        "    with socket.create_connection(('127.0.0.1', port)) as sock:\n"
        "        sock.sendall(message)\n"
        "        return sock.recv(64)\n",
    )
    assert "R104" not in _codes(lint_file(path))


def test_r104_finally_closed_socket_is_clean(tmp_path):
    path = _write(
        tmp_path,
        "repro/service/finally_client.py",
        "import socket\n"
        "\n"
        "def ask(port, message):\n"
        "    sock = socket.create_connection(('127.0.0.1', port))\n"
        "    try:\n"
        "        sock.sendall(message)\n"
        "        return sock.recv(64)\n"
        "    finally:\n"
        "        sock.close()\n",
    )
    assert "R104" not in _codes(lint_file(path))


def test_r104_success_only_close_flags_missing_error_path(tmp_path):
    path = _write(
        tmp_path,
        "repro/service/halfway_client.py",
        "import socket\n"
        "\n"
        "def ask(port, message):\n"
        "    sock = socket.create_connection(('127.0.0.1', port))\n"
        "    sock.sendall(message)\n"
        "    reply = sock.recv(64)\n"
        "    sock.close()\n"
        "    return reply\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R104"]
    assert len(findings) == 1
    assert "error path" in findings[0].message


def test_r104_unclosed_asyncio_server_flagged(tmp_path):
    path = _write(
        tmp_path,
        "repro/service/leaky_server.py",
        "import asyncio\n"
        "\n"
        "async def run(handler):\n"
        "    server = await asyncio.start_server(handler, 'localhost', 0)\n"
        "    await asyncio.sleep(3600)\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R104"]
    assert len(findings) == 1
    assert "asyncio server" in findings[0].message


def test_r104_socketpair_needs_a_close_on_both_paths(tmp_path):
    """Both ends of a pair are one resource: a scope that closes them
    only on success is flagged, a try/except that also closes them on
    failure (the forked fleet's shape) is clean."""
    halfway = _write(
        tmp_path,
        "repro/dist/halfway_pair.py",
        "import socket\n"
        "\n"
        "def pair(data):\n"
        "    left, right = socket.socketpair()\n"
        "    left.sendall(data)\n"
        "    left.close()\n"
        "    return right\n",
    )
    findings = [f for f in lint_file(halfway) if f.code == "R104"]
    assert len(findings) == 1
    assert "socket pair" in findings[0].message
    assert "error path" in findings[0].message
    tidy = _write(
        tmp_path,
        "repro/dist/tidy_pair.py",
        "import socket\n"
        "\n"
        "def pair(data):\n"
        "    left, right = socket.socketpair()\n"
        "    try:\n"
        "        left.sendall(data)\n"
        "        left.close()\n"
        "    except BaseException:\n"
        "        left.close()\n"
        "        right.close()\n"
        "        raise\n"
        "    return right\n",
    )
    assert "R104" not in _codes(lint_file(tidy))


def test_r104_ownership_handoff_suppression(tmp_path):
    path = _write(
        tmp_path,
        "repro/service/handoff.py",
        "import socket\n"
        "\n"
        "def dial(port):\n"
        "    sock = socket.create_connection(('127.0.0.1', port))"
        "  # reprolint: disable=R104 -- the caller owns the close\n"
        "    return sock\n",
    )
    assert lint_file(path) == []


def test_r104_wait_closed_counts_as_close(tmp_path):
    path = _write(
        tmp_path,
        "repro/service/tidy_server.py",
        "import asyncio\n"
        "\n"
        "async def run(handler):\n"
        "    server = await asyncio.start_server(handler, 'localhost', 0)\n"
        "    try:\n"
        "        await asyncio.sleep(3600)\n"
        "    finally:\n"
        "        server.close()\n"
        "        await server.wait_closed()\n",
    )
    assert "R104" not in _codes(lint_file(path))


def test_r102_service_jobs_is_a_sanctioned_timestamp_seam(tmp_path):
    source = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    seam = _write(tmp_path, "repro/service/jobs.py", source)
    assert "R102" not in _codes(lint_file(seam))
    elsewhere = _write(tmp_path, "repro/service/pool_clock.py", source)
    assert "R102" in _codes(lint_file(elsewhere))


# ----------------------------------------------------------------------
# R105 — pool buffer encapsulation
# ----------------------------------------------------------------------
def test_r105_pool_module_exempt(tmp_path):
    source = FIXTURES["R105"][1]
    path = _write(tmp_path, "repro/rrset/pool.py", source)
    assert "R105" not in _codes(lint_file(path))


def test_r105_flags_both_private_buffers(tmp_path):
    path = _write(
        tmp_path,
        "repro/rrset/est.py",
        "def bounds(pool):\n"
        "    return pool._indptr[0], pool._members[-1]\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R105"]
    assert len(findings) == 2


def test_r105_flags_index_arrays_as_possibly_stale(tmp_path):
    """The inverted index is built at the first index read, so a raw read
    outside the pool may see it lag the sets — the message says so,
    where the buffers' message names reallocation."""
    path = _write(
        tmp_path,
        "repro/algorithms/peek.py",
        "def sets_of(pool, node):\n"
        "    lo, hi = pool._idx_indptr[node], pool._idx_indptr[node + 1]\n"
        "    return pool._idx_sets[lo:hi]\n"
        "\n"
        "def raw(pool):\n"
        "    return pool._members\n",
    )
    findings = [f for f in lint_file(path) if f.code == "R105"]
    assert [f.line for f in findings] == [2, 2, 3, 6]
    assert all("lag the sets" in f.message for f in findings[:3])
    assert "reallocate on growth" in findings[3].message
    assert "lag the sets" not in findings[3].message


def test_r105_index_queries_not_flagged(tmp_path):
    path = _write(
        tmp_path,
        "repro/algorithms/indexok.py",
        "def sets_of(pool, node, idx_sets, pend):\n"
        "    pool.remove_covered(node)\n"
        "    return pool.coverage_of_set([node]), idx_sets[0], pend._nodes\n",
    )
    assert "R105" not in _codes(lint_file(path))


def test_r105_recommends_only_methods_the_pool_has():
    """Each method R105's docstring and messages send users to instead
    is an attribute of ``RRSetPool`` (``add_flat*`` names the family)."""
    from repro.analysis.rules import r105_pool_internals as r105
    from repro.rrset.pool import RRSetPool

    stable = re.search(r"stable API\s*\((.*?)\)\.", r105.__doc__, re.S)
    named = set(re.findall(r"``(\w+)``", stable.group(1)))
    for text in (r105._BUFFER[1], r105._INDEX[1],
                 r105.PoolInternalsRule.description):
        named |= set(re.findall(r"(\w+)\*?\(\)", text))
    assert {"prefix_view", "add_flat", "remove_covered"} <= named
    assert [name for name in sorted(named) if not hasattr(RRSetPool, name)] == []


def test_r105_public_api_not_flagged(tmp_path):
    path = _write(
        tmp_path,
        "repro/rrset/apiok.py",
        "def view(pool):\n"
        "    return pool.prefix_view(10).members\n",
    )
    assert "R105" not in _codes(lint_file(path))
