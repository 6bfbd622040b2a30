"""The benchmark's tracer can still find every function it wraps.

`perfbench/tracing.py` replaces module and class attributes while a traced
op runs, looking each up with `vars(owner)[attr]`.  A refactor that moves,
renames or stops calling through one of them would make `run.py --trace 1`
fail or report an empty layer; these tests catch that in the unit suite.
The module is imported from its file and not modified.
"""

import importlib.util
from pathlib import Path

from conftest import BOX_100, clustered_bodies
from orgtree import metrics, run
from orgtree.ntree import build_tree

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves_through_the_owner_namespace():
    tracing = load_tracing()
    assert tracing.CALL_SITES
    for owner, attr, _, _ in tracing.CALL_SITES:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def test_traced_detection_and_graph_reach_their_spans_and_are_restored():
    tracing = load_tracing()
    before = {(id(o), a): vars(o)[a] for o, a, _, _ in tracing.CALL_SITES}
    bodies = clustered_bodies([(30.0, 30.0), (70.0, 70.0)], 40, 4.0, seed=3)
    tree = build_tree(bodies, BOX_100, 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.op(0):
            orgs = run.detect_organizations(tree, 4)
            graph = metrics.interaction_graph(bodies)
            metrics.modularity(graph, metrics.organization_partition(orgs, len(bodies)))
    tracer.flush()
    names = {span[3] for span in tracer.spans}
    assert {"run.detect_organizations", "detect.cut", "detect.group_cells2",
            "detect.organizations_from", "metrics.interaction_graph",
            "metrics.organization_partition", "metrics.modularity"} <= names
    assert tracer.counts[0]["detect.groups"] >= 1
    assert tracer.counts[0]["metrics.graph_bytes_computed"] == len(bodies) ** 2 * 8
    assert {(id(o), a): vars(o)[a] for o, a, _, _ in tracing.CALL_SITES} == before
