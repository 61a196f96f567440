"""Static guard: map stages run as stateless tasks, not actor pools.

An autoscaling actor pool holds a logical CPU per idle actor for as long
as its Dataset lives, so pools left over from earlier queries can starve
a shared Ray session.  Every map stage therefore passes a plain function
that ``ray.get``s its broadcast side.  Pools are kept only where
construction is a model or decoder load.
"""

import ast
import glob
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "aiw_i2b2_etl_ray")

#: module -> number of actor-pool map stages it is allowed to hold
POOL_SITES = {"pipelines/inference.py": 1, "pipelines/multimodal.py": 3}

_POOL_KWARGS = {"concurrency", "fn_constructor_kwargs", "fn_constructor_args"}


def _pool_calls(path: str) -> list[int]:
    """Line numbers of map_batches/map_groups calls in ``path`` that ask
    for an actor pool: a pool-only keyword, or a class defined in the
    module passed as the fn."""
    tree = ast.parse(open(path).read(), path)
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("map_batches", "map_groups")
        ):
            continue
        kws = {k.arg for k in node.keywords}
        fns = node.args[:1] + [k.value for k in node.keywords if k.arg == "fn"]
        passes_class = any(isinstance(f, ast.Name) and f.id in classes for f in fns)
        if kws & _POOL_KWARGS or passes_class:
            lines.append(node.lineno)
    return sorted(lines)


def test_actor_pools_only_at_model_and_decoder_loads():
    found = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        lines = _pool_calls(path)
        if lines:
            found[os.path.relpath(path, PKG)] = lines
    stray = {m: ls for m, ls in found.items() if m not in POOL_SITES}
    assert not stray, f"actor-pool map stages outside model/decoder loads: {stray}"
    assert {m: len(ls) for m, ls in found.items()} == POOL_SITES, found


def test_guard_detects_each_pool_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class Fn:\n"
        "    def __call__(self, t):\n"
        "        return t\n"
        "def f(t):\n"
        "    return t\n"
        "ds.map_batches(Fn)\n"
        "ds.map_batches(f, concurrency=(1, 4))\n"
        "ds.groupby('k').map_groups(fn=Fn)\n"
        "ds.map_batches(f, fn_constructor_kwargs={})\n"
        "ds.map_batches(f, fn_kwargs={'x': 1})\n"
        "ds.map_batches(Fn())\n"
    )
    assert _pool_calls(str(src)) == [6, 7, 8, 9]
