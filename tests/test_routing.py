"""Key -> partition routing (stages/routing.py).

Exactly-once across runs holds only while every change keeps landing on
the partition whose watermark covers it, so routing is pinned here: golden
partitions for a probe table of awkward keys, the routing fingerprint, the
newly-hot transition's partition sets against what the Normalizer assigns,
and a static check that no other module re-derives any part of it.
"""

import ast
import glob
import os

import numpy as np
import pyarrow as pa
import pytest

from aiw_i2b2_etl_ray.stages import routing
from aiw_i2b2_etl_ray.stages.normalize import Normalizer

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "aiw_i2b2_etl_ray")

#: route(probe_table(), 32, 8, hot) at the commit that introduced routing.py;
#: the same values the engine's earlier inline routing produced
GOLDEN = {
    "cold": (
        [4, 18, 15, 3, 16, 14, 13, 20, 3, 28, 8, 11, 14, 5, 3, 29, 20, 4,
         31, 1, 28, 22, 11, 27, 3, 3, 24, 9, 27, 25, 29, 16, 4, 31, 29, 17],
        [0] * 36,
    ),
    "hot": (
        [24, 18, 24, 3, 26, 14, 1, 20, 3, 28, 18, 11, 2, 5, 24, 29, 30, 4,
         19, 1, 15, 22, 21, 27, 23, 3, 1, 9, 5, 25, 17, 16, 14, 31, 7, 17],
        [1, 0] * 18,
    ),
}


def test_probe_table_covers_awkward_keys():
    keys = routing.encode_keys(routing.probe_table())
    assert any("\x00" in k for k in keys)  # null repo / path
    assert any(k.startswith("\x1f") for k in keys)  # empty repo
    assert any(k.count("\x1f") > 1 for k in keys)  # separator inside a value
    assert any(not k.isascii() for k in keys)
    assert any(len(k.encode()) > 64 for k in keys)


@pytest.mark.parametrize("case", ["cold", "hot"])
def test_golden_routes(case):
    t = routing.probe_table()
    hot = routing.encode_keys(t)[::2] if case == "hot" else None
    pkey, is_hot = routing.route(t, 32, 8, hot)
    assert pkey.dtype == np.int32
    assert pkey.tolist() == GOLDEN[case][0]
    assert is_hot.astype(int).tolist() == GOLDEN[case][1]


def test_routing_id_pinned():
    assert routing.routing_id() == "a06373b756ef9d7d"


def test_check_job():
    import polars as pl

    routing.check_job({"num_partitions": 4, "routing_id": routing.routing_id()}, 4)
    routing.check_job({"num_partitions": 4}, 4)  # no routing record at all
    routing.check_job({"polars_version": pl.__version__}, 4)
    for job, match in (
        ({"routing_id": "0" * 16}, "routing"),
        ({"polars_version": "0.0.1-other"}, "polars"),
        ({"num_partitions": 8}, "num_partitions"),
        ({"num_partitions": 4, "salt_buckets": 2}, "salt_buckets"),
    ):
        with pytest.raises(ValueError, match=match):
            routing.check_job(job, 4, 8)


def test_transition_pids_match_normalizer(ray_session):
    """For random keys: ``home_pids`` is the partition the Normalizer gives
    the key while cold, and ``salted_pids`` is the set of partitions it
    gives the key's changes once hot."""
    import ray

    rng = np.random.default_rng(7)
    P, S, n_commits = 32, 8, 400
    alphabet = list("ab/\x1f.ü日_") + [""]
    for _ in range(12):
        repo = "".join(rng.choice(alphabet, size=rng.integers(1, 12)))
        path = "".join(rng.choice(alphabet, size=rng.integers(1, 80)))
        t = pa.table(
            {
                "repo": [repo] * n_commits,
                "path": [path] * n_commits,
                "commit": [f"{rng.integers(1 << 62):x}" for _ in range(n_commits)],
                "lang": ["c"] * n_commits,
                "content": pa.array(["x"] * n_commits, pa.large_string()),
                "commit_seq": pa.array(range(n_commits), pa.int64()),
                "op": ["U"] * n_commits,
            }
        )
        (key,) = set(routing.encode_keys(t))
        cold = Normalizer(P, S)(t)
        assert set(cold["pkey"].to_pylist()) == {int(routing.home_pids([key], P)[0])}
        hot = Normalizer(P, S, ray.put({key}))(t)
        assert all(hot["is_hot"].to_pylist())
        assert set(hot["pkey"].to_pylist()) == set(routing.salted_pids([key], P, S)[0].tolist())


def test_slice_ids_balance_within_a_partition():
    """Every cold key of one partition has the same ``kh % P``, so a slice
    taken from those bits would put the whole partition in one slice."""
    kh = np.random.default_rng(3).integers(0, 2**64, 64_000, dtype=np.uint64)
    kh = kh[kh % np.uint64(32) == 5]
    assert len(set((kh % np.uint64(4)).tolist())) == 1
    counts = np.bincount(routing.slice_ids(kh, 4), minlength=4)
    assert counts.min() > 0.2 * len(kh), counts


# --- one owner: a static guard -------------------------------------------------

#: modules allowed to spell out the key encoding or the salt
OWNERS = {"stages/routing.py", "functions/hashing.py"}


def _routing_leaks(path: str) -> list[int]:
    """Lines in ``path`` holding a ``"\\x1f"`` string constant or a
    reference to ``_SALT_PRIME``."""
    tree = ast.parse(open(path).read(), path)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\x1f" in node.value:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_SALT_PRIME":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_SALT_PRIME":
            lines.append(node.lineno)
        elif isinstance(node, ast.alias) and node.name == "_SALT_PRIME":
            lines.append(node.lineno)
    return sorted(lines)


def test_routing_has_one_owner():
    stray = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, PKG)
        if rel not in OWNERS and (lines := _routing_leaks(path)):
            stray[rel] = lines
    assert not stray, f"key encoding or salting outside stages/routing.py: {stray}"


def test_guard_detects_each_leak_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "k = f'{r}\\x1f{p}'\n"
        "from x import _SALT_PRIME\n"
        "s = _SALT_PRIME * 2\n"
        "t = normalize._SALT_PRIME\n"
        "u = 'a/b'\n"
    )
    assert _routing_leaks(str(src)) == [1, 2, 3, 4]
