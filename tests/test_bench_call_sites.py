"""The benchmark's tracer can still find every function it wraps, and its
workloads still run.

`perfbench/tracing.py` replaces module and class attributes while a traced
op runs, looking each up with `vars(owner)[attr]`.  A refactor that moves,
renames or stops calling through one of them would make `run.py --trace 1`
fail or report an empty layer; these tests catch that in the unit suite.
Likewise a change that drops or re-signatures a name `perfbench/workloads.py`
calls fails here rather than in a benchmark run.  The modules are imported
from their files and not modified.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import BOX_100, clustered_bodies
from oracles import build_reference, collect_bodies, linear_radius
from orgtree import metrics, run
from orgtree.geometry import Vec2
from orgtree.ntree import Body, build_tree
from orgtree.trace import read_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("tracing")


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
    # The graph holds the N x 2 positions; modularity never built the matrix.
    assert tracer.counts[0]["metrics.graph_bytes_computed"] == len(bodies) * 2 * 8
    assert "weights" not in vars(graph)
    assert {(id(o), a): vars(o)[a] for o, a, _, _ in tracing.CALL_SITES} == before


def test_tree_shape_and_probe_queries_match_the_reference_tree():
    """The probes read `leaves()`, `.coord`, `.count`, `.capacity` and
    `query_radius_bodies(Vec2, r)`; their figures equal the reference tree's."""
    workloads = load("workloads")
    bodies = clustered_bodies([(30.0, 30.0), (70.0, 70.0)], 60, 4.0, seed=5)
    bodies += [Body(len(bodies) + k, 0, Vec2(51.0, 49.0), Vec2(0.0, 0.0)) for k in range(4)]
    tree = build_tree(bodies, BOX_100, 2, max_depth=9)
    root = build_reference(bodies, BOX_100, 2, 9)
    nodes, leaves, stack = 0, [], [root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.children is None:
            leaves.append(node)
        stack.extend(node.children or ())
    assert workloads.tree_shape(tree) == {
        "ntree.nodes": nodes,
        "ntree.leaves": len(leaves),
        "ntree.depth_max": 9,
        "ntree.overfull_leaves": sum(1 for leaf in leaves if leaf.count > 2),
    }
    assert workloads.tree_shape(tree)["ntree.overfull_leaves"] == 1
    everyone = collect_bodies(root)
    for radius in (0.5, 3.0, 20.0):
        hits = [len(tree.query_radius_bodies(b.position, radius)) for b in tree.bodies]
        assert hits == [len(linear_radius(everyone, b.position, radius)) for b in tree.bodies]


def test_the_organize_trace_gives_every_step_from_its_tail(tmp_path):
    """The organize workload writes its trace with `json.dumps(sort_keys=True)`,
    whose spaced separators end each frame in `"step": k}`.  Every frame line
    must give its step from that tail, so each op decodes one frame only."""
    organize = load("workloads").Organize(1, tmp_path)
    frames = read_trace(organize.trace_path).lines
    assert [step for _, step, _ in frames] == list(range(organize.FRAMES))
    assert all(isinstance(span, tuple) for _, _, span in frames)  # (offset, length), undecoded


@pytest.mark.parametrize("name", ["flock", "field", "organize"])
def test_each_workload_runs_one_op_and_passes_its_checks(tmp_path, name):
    """One round of one op through every hook the benchmark calls untimed."""
    workload = load("workloads").WORKLOADS[name](1, tmp_path)
    ctx = workload.setup()
    out = workload.op(ctx, 0)
    assert workload.check_op(ctx, 0, out)
    workload.close(ctx)
    assert workload.check_run() == []
