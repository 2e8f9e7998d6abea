"""Self-analysis: the repository passes its own interprocedural analyzer,
and the analyzer demonstrably *sees* the protocol (quorum sites classified,
message graph populated) rather than passing vacuously."""

import json
from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.engine import analyze_project, collect_files, parse_file
from repro.analysis.flow import FlowContext
from repro.analysis.flow.graphs import render_dot, render_graph_json
from repro.analysis.flow.quorum import collect_sites
from repro.analysis.registry import ProjectIndex

REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def fctx() -> FlowContext:
    """One parse of ``src/`` plus its call and message graphs (about 3 s),
    shared by the tests below: they only read it."""
    config = load_config(project_root=REPO_ROOT)
    contexts = []
    for path in collect_files(config, None):
        ctx = parse_file(path, config)
        if ctx is not None:
            contexts.append(ctx)
    return FlowContext(ProjectIndex(config=config, files=contexts))


def test_repository_is_analyze_clean():
    config = load_config(project_root=REPO_ROOT)
    result = analyze_project(config)
    rendered = "\n".join(v.render() for v in result.violations)
    assert result.clean, f"repository fails its own analyzer:\n{rendered}"
    assert result.files_checked > 50


def test_quorum_sites_cover_the_bft_core(fctx):
    sites = collect_sites(fctx)
    by_class = {}
    for site in sites:
        by_class.setdefault(site.kind.cls, 0)
        by_class[site.kind.cls] += 1
    # every vote family in the protocol is classified somewhere
    for cls in ("prepare", "commit", "checkpoint", "viewchange", "reply"):
        assert by_class.get(cls, 0) >= 1, f"no {cls} quorum site classified"
    assert len(sites) >= 10
    # the certificate-verification site is recognized as derived from a
    # CheckpointCert parameter (what QUORUM504 keys on)
    assert any(site.kind.cert_param for site in sites)


def test_message_graph_covers_the_wire_protocol(fctx):
    graph = fctx.message_graph
    assert len(graph.nodes) >= 15
    for name in ("Request", "PrePrepare", "Prepare", "Commit", "Checkpoint"):
        node = graph.nodes[name]
        assert node.producers, f"{name} has no construction site"
        assert node.consumers, f"{name} has no dispatch arm"
    assert "TransferRoot" in graph.nodes["CheckpointCert"].embedded_in
    assert graph.post_freeze_mutable == frozenset({"auth", "sig"})


def test_graph_dumps_are_well_formed(fctx):
    dot = render_dot(fctx.message_graph)
    assert dot.startswith("digraph message_flow {") and dot.rstrip().endswith("}")
    assert '"PrePrepare" [shape=box' in dot
    payload = json.loads(render_graph_json(fctx.callgraph, fctx.message_graph))
    assert payload["format"] == 1
    assert len(payload["callgraph"]["functions"]) > 500
    assert len(payload["messages"]) >= 15
    qualnames = {f["qualname"] for f in payload["callgraph"]["functions"]}
    assert "repro.bft.replica.Replica.on_message" in qualnames
