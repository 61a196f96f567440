"""Static guard: keyed operators fold through ``stages.exchange.keyed_fold``.

``groupby(k).map_groups(fn)`` dispatches one call per group, and a pandas
group pays a pandas conversion per group as well; at ~10^4 groups that
dispatch dominated the query.  A keyed operator instead runs one
``keyed_fold``, whose polars kernel groups many keys at once.  No
``map_groups`` may ask for pandas batches, and the pyarrow ones left on
natural keys are pinned per module.
"""

import ast
import glob
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "aiw_i2b2_etl_ray")

#: module -> number of pyarrow map_groups calls it may hold
MAP_GROUPS_SITES = {
    "sinks.py": 1,
    "pipelines/ann_index.py": 1,
    "pipelines/dedup.py": 1,
    "pipelines/dedup_index.py": 1,
    "pipelines/cdc_queries.py": 4,
    "pipelines/tpch_like.py": 2,
    "pipelines/similarity.py": 2,
    "pipelines/sketches.py": 2,
}


def _map_groups_calls(path: str) -> list[tuple[int, str | None]]:
    """(line, batch_format) of every ``.map_groups(...)`` call in ``path``;
    the format is None when it is not a string literal or not given."""
    tree = ast.parse(open(path).read(), path)
    calls = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "map_groups"
        ):
            continue
        fmt = [k.value for k in node.keywords if k.arg == "batch_format"]
        value = fmt[0].value if fmt and isinstance(fmt[0], ast.Constant) else None
        calls.append((node.lineno, value))
    return sorted(calls)


def _all_calls() -> dict[str, list]:
    found = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        calls = _map_groups_calls(path)
        if calls:
            found[os.path.relpath(path, PKG)] = calls
    return found


def test_no_pandas_map_groups():
    pandas = {m: [ln for ln, fmt in cs if fmt != "pyarrow"] for m, cs in _all_calls().items()}
    pandas = {m: ls for m, ls in pandas.items() if ls}
    assert not pandas, f"map_groups without batch_format='pyarrow' (use keyed_fold): {pandas}"


def test_map_groups_only_at_pinned_sites():
    found = {m: len(cs) for m, cs in _all_calls().items()}
    assert found == MAP_GROUPS_SITES, _all_calls()


def test_guard_reads_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "ds.groupby('k').map_groups(f, batch_format='pandas')\n"
        "ds.groupby('k').map_groups(f, batch_format='pyarrow')\n"
        "ds.groupby('k').map_groups(f)\n"
        "ds.map_batches(f, batch_format='pandas')\n"
        "(ds.groupby(['a', 'b'])\n"
        "   .map_groups(lambda g: g, batch_format='pandas'))\n"
    )
    assert _map_groups_calls(str(src)) == [
        (1, "pandas"), (2, "pyarrow"), (3, None), (5, "pandas")
    ]
