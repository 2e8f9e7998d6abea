"""Call-graph construction: the resolution idioms the taint rules depend on."""

from repro.analysis.engine import collect_files, parse_file
from repro.analysis.flow.callgraph import build_callgraph, module_name
from repro.analysis.registry import ProjectIndex

from tests.analysis.util import make_config


def test_module_name_mapping():
    assert module_name("src/repro/bft/log.py") == "repro.bft.log"
    assert module_name("src/repro/bft/__init__.py") == "repro.bft"
    assert module_name("tools/gen.py") == "tools.gen"


PROJECT = {
    "src/pkg/helpers.py": """
def helper():
    return 1


def outer():
    return helper()
""",
    "src/pkg/objects.py": """
from pkg.helpers import helper


class Widget:
    def __init__(self, size: int):
        self.size = size

    def poke(self):
        return helper()


class Gadget(Widget):
    pass


def make() -> Widget:
    return Widget(3)
""",
    "src/pkg/driver.py": """
from pkg import objects
from pkg.objects import Widget, make


class Driver:
    def __init__(self, widget: Widget):
        self.widget = widget

    def run(self):
        self.widget.poke()

    def build(self):
        fresh = objects.Widget(5)
        fresh.poke()
        made = make()
        made.poke()


def run_gadget(gadget: "objects.Gadget"):
    pass
""",
}


def _graph(tmp_path, files=PROJECT):
    config = make_config(tmp_path, files, det_scope=[])
    contexts = [parse_file(path, config) for path in collect_files(config)]
    return build_callgraph(ProjectIndex(config=config, files=contexts))


def test_bare_and_from_import_calls_resolve(tmp_path):
    graph = _graph(tmp_path)
    outer = graph.functions["pkg.helpers.outer"]
    assert list(outer.callee_names()) == ["pkg.helpers.helper"]
    poke = graph.functions["pkg.objects.Widget.poke"]
    assert list(poke.callee_names()) == ["pkg.helpers.helper"]


def test_typed_attribute_receiver_resolves_method(tmp_path):
    graph = _graph(tmp_path)
    run = graph.functions["pkg.driver.Driver.run"]
    assert "pkg.objects.Widget.poke" in list(run.callee_names())


def test_constructor_and_return_annotation_typing(tmp_path):
    graph = _graph(tmp_path)
    build = graph.functions["pkg.driver.Driver.build"]
    callees = list(build.callee_names())
    # constructor call resolves to __init__, and both constructor-typed and
    # return-annotation-typed locals resolve .poke()
    assert "pkg.objects.Widget.__init__" in callees
    assert callees.count("pkg.objects.Widget.poke") == 2


def test_method_lookup_walks_base_chain(tmp_path):
    graph = _graph(tmp_path)
    found = graph.find_method("Gadget", "poke")
    assert found is not None and found.qualname == "pkg.objects.Widget.poke"


def test_container_annotations_do_not_type_instances(tmp_path):
    files = dict(PROJECT)
    files["src/pkg/holder.py"] = """
from typing import Dict, Optional

from pkg.objects import Widget


class Holder:
    def __init__(self):
        self.many: Dict[str, Widget] = {}
        self.one: Optional[Widget] = None
"""
    graph = _graph(tmp_path, files)
    # Dict[str, Widget] is a container of Widgets, not a Widget,
    assert graph.attr_type("Holder", "many") is None
    # and Optional[Widget] is an instance.
    assert graph.attr_type("Holder", "one") == "Widget"
