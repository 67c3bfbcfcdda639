"""Guard against dead code: every module-level function, class or constant in
the package is exported from __init__.py or referenced elsewhere in the
package, every exported name is read outside the tests, every public method
of every package class, exported or not, is called outside the tests (a
method name that two classes share is resolved by owner, through a listed
reader that calls it; a known list of test-only methods aside), every
field of a package dataclass, and every attribute a package exception sets
in __init__, is read outside the tests (by name, whatever object it is
loaded from; a name that two or more classes declare is resolved by owner,
through a listed reader that loads it), every option a CLI subcommand
declares is read by its handler, only graphs.py reads a graph's neighbourhoods other than as bitmasks, only graphs.py
builds a graph without checking its edges, only cli.py reads config
documents, every embedding the package builds is handed to
embedding._validated and only embedding.py calls validate_embedding, only
pseudorandom._routed_pairs calls _record_pairs or _sampled_pairs or reads
PAIR_BUDGET or EXPANSION_PAIR_BUDGET, only graphs._seed holds the seed mix's
multiplier 1_000_003, only partition.py builds a PartitionResult, no generator recurses by delegating to itself, and no other
function calls itself unless a constant bounds its depth."""

from __future__ import annotations

import argparse
import ast
import inspect
import re
import textwrap
from collections import Counter
from pathlib import Path
from typing import Iterable

from pathramsey.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pathramsey"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names(node: ast.AST) -> list[str]:
    """Names a module-level statement defines: a function, a class or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not _dunder(sub.id)
        ]
    return []


def _references(node: ast.AST) -> set[str]:
    """Names read, attributes read and names imported under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _parse_package(package: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def unreferenced_definitions(package: Path) -> list[str]:
    """Module-level definitions that nothing outside their own statement names."""
    trees = _parse_package(package)
    tops = [(top, _references(top)) for tree in trees.values() for top in tree.body]
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if not any(name in refs for top, refs in tops if top is not node):
                    dead.append(f"{module}.{name}")
    return dead


def readme_code(readme: Path) -> list[ast.Module]:
    """The README's fenced Python code blocks, parsed."""
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.MULTILINE | re.DOTALL)
    return [ast.parse(block) for block in blocks]


def _exported(init: ast.Module) -> list[str]:
    """The names __init__.py imports from package modules, dunders aside."""
    return [
        alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not _dunder(alias.asname or alias.name)
    ]


def unread_exports(package: Path, readers: Iterable[ast.AST]) -> list[str]:
    """Names __init__.py exports, dunders aside, that nothing outside the tests reads.

    A read is a reference in another package module (the name's own
    definition aside) or in one of the given reader trees.
    """
    trees = _parse_package(package)
    exported = _exported(trees.pop("__init__"))
    outside = set().union(*map(_references, readers))
    tops = [(top, _references(top)) for tree in trees.values() for top in tree.body]
    return [
        name for name in exported
        if name not in outside
        and not any(name in refs for top, refs in tops if name not in _defined_names(top))
    ]


def test_no_unreferenced_module_level_definitions():
    assert unreferenced_definitions(PACKAGE) == []


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n\n__version__ = '0'\n")
    (tmp_path / "a.py").write_text(
        "_CAP = 2\n_LIMIT: int = 3\n__author__ = 'x'\n\n"
        "def used():\n    _CAP = 1\n    return _helper() + _LIMIT\n\n"
        "def _helper():\n    return 1\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a._CAP", "a._dead"]


def _outside_readers() -> dict[str, ast.Module]:
    """Code outside the tests that may read the package, by path: bench/, README examples, the acceptance gate."""
    readme = readme_code(ROOT / "README.md")
    return {
        **{f"bench/{path.name}": ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))},
        "README.md": ast.Module(body=[node for block in readme for node in block.body], type_ignores=[]),
        "tests/test_acceptance.py": ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()),
    }


def test_every_export_is_read_outside_the_tests():
    assert unread_exports(PACKAGE, _outside_readers().values()) == []


def test_export_guard_flags_a_name_only_tests_read(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .a import LIMIT, inner, outer, shown, tested\n\n__version__ = '0'\n"
    )
    (package / "a.py").write_text(
        "LIMIT = 3\n\n"
        "def inner():\n    return LIMIT\n\n"
        "def outer():\n    return inner()\n\n"
        "def shown():\n    return 0\n\n"
        "def tested(n):\n    return tested(n - 1) if n else 0\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text(
        "```sh\npkg tested\n```\n\n```python\nimport pkg\npkg.shown()\n```\n"
    )
    bench = ast.parse("from pkg import outer\nouter()\n")
    assert unread_exports(package, [bench, *readme_code(readme)]) == ["tested"]


def _is_property(method: ast.AST) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
               for d in method.decorator_list)


def _method_reads(node: ast.AST, properties: set[str]) -> set[str]:
    """Names called as attributes under node, and property names loaded as attributes."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            found.add(sub.func.attr)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) and sub.attr in properties:
            found.add(sub.attr)
    return found


def _package_node(trees: dict[str, ast.Module], dotted: str) -> ast.AST | None:
    """The definition module.name[.name...] names in the package, or None."""
    module, *names = dotted.split(".")
    node = trees.get(module)
    for name in names:
        node = next((sub for sub in getattr(node, "body", []) if getattr(sub, "name", None) == name), None)
    return node


def unread_methods(package: Path, readers: dict[str, ast.Module], listed: dict[str, str]) -> list[str]:
    """Public methods of package classes, as Class.method, that nothing outside the tests reads.

    Every class a package module defines counts, exported or not.  A read
    of a method is a call of its name as an attribute (x.name(...)), or,
    for a property, any attribute load of its name.  An owner in listed
    counts as read only when its listed reader calls the name there: a
    package definition as module.name[.name] or a reader's key.  An owner
    of a name that two or more package classes define must be listed, since
    a call of the name cannot tell which class it reaches.  Any other owner
    counts as read when a package statement other than its own definition
    (a class body counts statement by statement) or a reader calls the
    name.  A listed owner that defines no such method is flagged too.
    """
    trees = _parse_package(package)
    methods: dict[str, ast.AST] = {}
    for tree in trees.values():
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                        methods.setdefault(f"{top.name}.{node.name}", node)
    owners = Counter(method.name for method in methods.values())
    properties = {method.name for method in methods.values() if _is_property(method)}
    statements = [
        node for tree in trees.values() for top in tree.body
        for node in (top.body if isinstance(top, ast.ClassDef) else [top])
    ]
    read = [(node, _method_reads(node, properties)) for node in statements]
    outside = set().union(*(_method_reads(tree, properties) for tree in readers.values()))
    unread = []
    for key, method in methods.items():
        if key in listed:
            reader = readers.get(listed[key]) or _package_node(trees, listed[key])
            ok = reader not in (None, method) and method.name in _method_reads(reader, properties)
        else:
            ok = owners[method.name] == 1 and (
                method.name in outside
                or any(method.name in refs for node, refs in read if node is not method)
            )
        if not ok:
            unread.append(key)
    return unread + [key for key in listed if key not in methods]


# Owners of a public method name that two or more package classes define,
# each with the package function or outside reader that calls it on that
# class.  An entry may also pin an owner whose name no other class shares.
METHOD_READERS = {
    "ArrowVerdict.to_dict": "cli._cmd_arrow",
    "ClassPParams.an": "pseudorandom.verify_class_p",
    "ClassPParams.to_dict": "cli._cmd_gen",
    "ClassPReport.to_dict": "cli._cmd_verify_p",
    "ConstantsChain.to_dict": "cli._cmd_constants",
    "DensityCertificate.to_dict": "pseudorandom.ClassPReport.to_dict",
    "Embedding.to_dict": "pipeline.StepOutcome.to_dict",
    "GenerationLog.to_dict": "cli._cmd_gen",
    "LLLInstance.to_dict": "cli._cmd_lll_embed",
    "PartitionResult.to_dict": "cli._cmd_partition",
    "PipelineConfig.an": "pipeline.induction_step",
    "StepOutcome.to_dict": "cli._cmd_step",
}

# Public methods that only tests read today: none.  A new one fails the test;
# tests decode neighbours with graph_reference.mask_adjacency instead.
TEST_ONLY_METHODS = []


def test_every_public_method_of_a_package_class_is_read_outside_the_tests():
    assert unread_methods(PACKAGE, _outside_readers(), METHOD_READERS) == TEST_ONLY_METHODS


def test_method_guard_flags_a_method_only_tests_read(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import Shown, run\n")
    (package / "a.py").write_text(
        "class Shown:\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    @property\n    def size(self):\n        return 2\n\n"
        "    def tested(self, n):\n        return self.tested(n - 1) if n else 0\n\n"
        "    def _private(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "class Hidden:\n"
        "    def unread(self):\n        return 0\n\n"
        "def run(obj):\n    return obj.used()\n"
    )
    bench = ast.parse("from pkg import Shown\nShown().size\n")
    assert unread_methods(package, {"bench": bench}, {}) == ["Shown.tested", "Hidden.unread"]


def test_method_guard_ignores_locals_and_parameters_of_the_same_name(tmp_path):
    # A parameter or local named like a test-only method is not a read of it,
    # and neither is a call of a module-level function of that name.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import Shown, run\n")
    (package / "a.py").write_text(
        "class Shown:\n"
        "    def tested(self):\n        return 0\n\n"
        "    def locate(self, tested):\n        return tested\n\n"
        "    def called(self):\n        return 1\n\n"
        "def called():\n    return 2\n\n"
        "def run(obj, located=None):\n"
        "    tested = obj.locate(3)\n"
        "    return tested, called(), located\n"
    )
    bench = ast.parse("from pkg import run\nrun(None)\n")
    assert unread_methods(package, {"bench": bench}, {}) == ["Shown.tested", "Shown.called"]


def test_method_guard_resolves_a_shared_name_by_owner(tmp_path):
    # Both classes define report(); only Read's is called, by show().  An
    # unlisted owner of a shared name is flagged, a listed one is judged by
    # its reader, and a reader that does not call the name does not count.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "class Read:\n    def report(self):\n        return 1\n\n"
        "class Unread:\n    def report(self):\n        return 2\n\n"
        "def show(obj):\n    return obj.report()\n\n"
        "def other(obj):\n    return obj\n"
    )
    assert unread_methods(package, {}, {}) == ["Read.report", "Unread.report"]
    assert unread_methods(package, {}, {"Read.report": "a.show"}) == ["Unread.report"]
    both = {"Read.report": "a.show", "Unread.report": "a.other"}
    assert unread_methods(package, {}, both) == ["Unread.report"]
    bench = ast.parse("def main(obj):\n    return obj.report()\n")
    stale = {"Read.report": "bench", "Gone.report": "a.show"}
    assert unread_methods(package, {"bench": bench}, stale) == ["Unread.report", "Gone.report"]


def test_method_guard_ignores_an_attribute_that_is_not_called(tmp_path):
    # counts() is read only as a field of an unrelated object and as a
    # bound-method value; neither is a call, so it is flagged.  A property
    # is read by any load.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "class Colouring:\n"
        "    def counts(self):\n        return {}\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "def tally(stats, obj):\n    return stats.counts['x'], obj.counts, obj.size\n"
    )
    bench = ast.parse("stats.counts = {}\nprint(stats.counts)\n")
    assert unread_methods(package, {"bench": bench}, {}) == ["Colouring.counts"]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
        for d in (getattr(d, "func", d) for d in cls.decorator_list)
    )


def _exception_names(classes: list[ast.ClassDef]) -> set[str]:
    """The classes that derive from Exception, directly or through other package classes."""
    found = {"Exception"}
    while True:
        new = {cls.name for cls in classes
               if any(getattr(b, "id", getattr(b, "attr", None)) in found for b in cls.bases)} - found
        if not new:
            return found
        found |= new


def _fields(trees: dict[str, ast.Module]) -> dict[str, str]:
    """Class.field -> field, for the fields of package dataclasses and the attributes exceptions set in __init__."""
    classes = [top for tree in trees.values() for top in tree.body if isinstance(top, ast.ClassDef)]
    exceptions = _exception_names(classes)
    fields = {}
    for cls in classes:
        if _is_dataclass(cls):
            names = [node.target.id for node in cls.body
                     if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        elif cls.name in exceptions:
            names = [
                sub.attr for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__"
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and getattr(sub.value, "id", None) == "self"
            ]
        else:
            names = []
        fields.update((f"{cls.name}.{name}", name) for name in names)
    return fields


def _loads(node: ast.AST) -> set[str]:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def unread_fields(package: Path, readers: dict[str, ast.Module], listed: dict[str, str]) -> list[str]:
    """Fields of package dataclasses and attributes package exceptions set in __init__,
    as Class.field, that nothing outside the tests loads as an attribute.

    A read is a load of the name as an attribute (x.name).  An owner in
    listed counts as read only when its listed reader loads the name there:
    a package definition as module.name[.name] or a reader's key.  An owner
    of a name that two or more of these classes declare must be listed,
    since a load of the name cannot tell which class it reaches.  Any other
    owner counts as read when a package module or a reader loads the name,
    whatever object it is loaded from.  A listed owner that declares no such
    field is flagged too.  A field that only the tests read is state that no
    caller needs.
    """
    trees = _parse_package(package)
    fields = _fields(trees)
    owners = Counter(fields.values())
    loaded = set().union(*map(_loads, [*trees.values(), *readers.values()]))
    unread = []
    for key, name in fields.items():
        if key in listed:
            reader = readers.get(listed[key]) or _package_node(trees, listed[key])
            ok = reader is not None and name in _loads(reader)
        else:
            ok = owners[name] == 1 and name in loaded
        if not ok:
            unread.append(key)
    return unread + [key for key in listed if key not in fields]


# Owners of a field name that two or more package dataclasses or exceptions
# declare, each with the package function or outside reader that loads it
# from that class.
FIELD_READERS = {
    "AuxColouring.blue_colour": "colouring.blue_path_to_blue_power",
    "AuxColouring.chi": "colouring.blue_path_to_blue_power",
    "AuxColouring.k": "colouring.blue_path_to_blue_power",
    "BlowupMap.t": "pipeline.induction_step",
    "ClassPParams.n": "pseudorandom.ClassPParams.an",
    "ClassPParams.quad": "pseudorandom.ClassPParams.an",
    "ClassPParams.t": "pseudorandom.verify_class_p",
    "ClassPReport.passed": "pipeline.induction_step",
    "ConstantsChain.clique_size": "embedding.ConstantsChain.to_dict",
    "ConstantsChain.k": "embedding.ConstantsChain.to_dict",
    "ConstantsChain.quad": "embedding.ConstantsChain.to_dict",
    "ConstantsChain.r": "embedding.ConstantsChain.to_dict",
    "ConstantsChain.s": "embedding.ConstantsChain.to_dict",
    "ConstantsChain.t": "embedding.ConstantsChain.to_dict",
    "DensityCertificate.passed": "pseudorandom.verify_class_p",
    "DensityCertificate.seed": "pseudorandom.DensityCertificate.to_dict",
    "Embedding.host": "embedding.validate_embedding",
    "GenerationConfig.seed": "pseudorandom.generate_class_p",
    "LLLInstance.blue_colour": "embedding.lll_embed",
    "LLLInstance.chi": "embedding.lll_embed",
    "LLLInstance.host": "embedding.lll_embed",
    "PipelineConfig.clique_size": "pipeline.build_step_host",
    "PipelineConfig.k": "pipeline.induction_step",
    "PipelineConfig.n": "pipeline.induction_step",
    "PipelineConfig.r": "pipeline.induction_step",
    "PipelineConfig.s": "pipeline.induction_step",
    "PipelineConfig.seed": "pipeline.induction_step",
    "PipelineConfig.t": "pipeline.PipelineConfig.big_r",
}


def test_every_dataclass_field_is_read_outside_the_tests():
    assert unread_fields(PACKAGE, _outside_readers(), FIELD_READERS) == []


def test_field_guard_flags_a_field_only_tests_read(tmp_path):
    # Report.flag is only stored and Hidden.note only assigned; a field read
    # through any object, in the package or a reader, counts, and a plain
    # class's annotations are not fields.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Report:\n"
        "    size: int\n    flag: bool\n    shown: int = 0\n\n"
        "    def to_dict(self):\n        return {'size': self.size}\n\n"
        "@dataclasses.dataclass\nclass Hidden:\n    note: str\n    count: int\n\n"
        "class Plain:\n    label: str\n\n"
        "def fill(h, flag):\n    h.note = flag\n    return h.count\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text("```python\nfrom pkg.a import Report\nprint(Report(1, True).shown)\n```\n")
    readers = {"README.md": ast.Module(body=readme_code(readme)[0].body, type_ignores=[])}
    assert unread_fields(package, readers, {}) == ["Report.flag", "Hidden.note"]


def test_field_guard_resolves_a_shared_name_by_owner(tmp_path):
    # Both dataclasses declare size and only Read's is loaded, by show().  An
    # unlisted owner of a shared name is flagged, a listed one is judged by
    # its reader, and a reader that does not load the name does not count.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Read:\n    size: int\n\n"
        "@dataclass\nclass Unread:\n    size: int\n\n"
        "def show(obj):\n    return obj.size\n\n"
        "def other(obj):\n    return obj\n"
    )
    assert unread_fields(package, {}, {}) == ["Read.size", "Unread.size"]
    assert unread_fields(package, {}, {"Read.size": "a.show"}) == ["Unread.size"]
    both = {"Read.size": "a.show", "Unread.size": "a.other"}
    assert unread_fields(package, {}, both) == ["Unread.size"]
    bench = ast.parse("def main(obj):\n    return obj.size\n")
    stale = {"Read.size": "bench", "Gone.size": "a.show"}
    assert unread_fields(package, {"bench": bench}, stale) == ["Unread.size", "Gone.size"]


def test_field_guard_covers_attributes_exceptions_set(tmp_path):
    # An exception's attribute set in __init__ is a field, through a package
    # base class too; a plain class's attributes and an exception's locals
    # and class attributes are not.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "errors.py").write_text(
        "class BaseError(Exception):\n    code = 1\n\n"
        "class SizeError(BaseError):\n"
        "    def __init__(self, message, size=0, limit=0):\n"
        "        super().__init__(message)\n"
        "        self.size = size\n        self.limit = limit\n        spare = limit\n\n"
        "class Plain:\n    def __init__(self):\n        self.hidden = 0\n"
    )
    (package / "a.py").write_text(
        "from .errors import SizeError\n\n"
        "def check(n):\n"
        "    try:\n        raise SizeError('big', size=n)\n"
        "    except SizeError as exc:\n        return exc.size\n"
    )
    assert unread_fields(package, {}, {}) == ["SizeError.limit"]


def unread_options(parser: argparse.ArgumentParser) -> list[str]:
    """Subcommand options whose dest the subcommand's handler never reads as args.<dest>."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sub in subparsers.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(sub.get_default("handler"))))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        unread.extend(
            f"{name} {action.option_strings[0]}" for action in sub._actions
            if action.option_strings and action.dest != "help" and action.dest not in read
        )
    return unread


def test_every_cli_option_is_read_by_its_handler():
    assert unread_options(build_parser()) == []


def test_guard_flags_an_unread_option():
    def handler(args):
        return args.used

    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("cmd")
    p.set_defaults(handler=handler)
    p.add_argument("--used")
    p.add_argument("--ignored", dest="other")
    assert unread_options(parser) == ["cmd --ignored"]


def adjacency_view_calls(package: Path) -> list[str]:
    """`.neighbours(` and `.degree(` calls, as module:line, in modules other than graphs.py.

    Neighbour bitmasks are the one adjacency view the package derives; a
    second view (neighbour tuples or degrees per call) would start with a
    method of one of these names.
    """
    return [
        f"{module}:{node.lineno}"
        for module, tree in _parse_package(package).items() if module != "graphs"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("neighbours", "degree")
    ]


def test_only_graphs_reads_neighbour_tuples_or_degrees():
    assert adjacency_view_calls(PACKAGE) == []


def test_adjacency_guard_flags_a_second_view(tmp_path):
    (tmp_path / "graphs.py").write_text("def deg(g):\n    return g.degree(0)\n")
    (tmp_path / "a.py").write_text(
        "def f(g, neighbours):\n"
        "    adj = [g.neighbours(v) for v in range(g.n)]\n"
        "    method = g.degree\n"
        "    return adj, neighbours(0), method, max(g.degree(v) for v in range(g.n))\n"
    )
    assert adjacency_view_calls(tmp_path) == ["a:2", "a:4"]


def unchecked_graph_calls(package: Path) -> list[str]:
    """`_from_edge_set(` calls, as module:line, in modules other than graphs.py.

    That constructor adopts an edge list without checking it; only the
    builders in graphs.py make pairs that are distinct, in range and in
    lexicographic order by construction.
    """
    return [
        f"{module}:{node.lineno}"
        for module, tree in _parse_package(package).items() if module != "graphs"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_from_edge_set"
    ]


def test_only_graphs_builds_unchecked_graphs():
    assert unchecked_graph_calls(PACKAGE) == []


def test_unchecked_graph_guard_flags_a_call_outside_graphs(tmp_path):
    (tmp_path / "graphs.py").write_text("def build(n, e):\n    return Graph._from_edge_set(n, e)\n")
    (tmp_path / "a.py").write_text(
        "from .graphs import Graph\n\n"
        "def f(n, edges, _from_edge_set):\n"
        "    g = Graph._from_edge_set(n, frozenset(edges))\n"
        "    adopt = Graph._from_edge_set\n"
        "    return g, adopt, _from_edge_set(n, edges)\n"
    )
    assert unchecked_graph_calls(tmp_path) == ["a:4", "a:6"]


def config_readers(package: Path) -> list[str]:
    """`parse_frac(` calls and `from_dict` definitions, as module:line, outside cli.py and serialize.py.

    The CLI's field readers turn config documents into library objects; a
    second reader elsewhere would duplicate their checks and drift from them.
    """
    return [
        f"{module}:{line}"
        for module, tree in _parse_package(package).items() if module not in ("cli", "serialize")
        for line in sorted(
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "parse_frac"
            or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "from_dict"
        )
    ]


def test_only_cli_reads_config_documents():
    assert config_readers(PACKAGE) == []


def test_config_reader_guard_flags_a_second_reader(tmp_path):
    (tmp_path / "serialize.py").write_text("def parse_frac(v):\n    return v\n")
    (tmp_path / "cli.py").write_text("from .serialize import parse_frac\n\nP = parse_frac('1')\n")
    (tmp_path / "a.py").write_text(
        "from . import serialize\nfrom .serialize import parse_frac\n\n"
        "class Config:\n"
        "    @classmethod\n"
        "    def from_dict(cls, doc):\n"
        "        return cls(serialize.parse_frac(doc['p']))\n\n"
        "def read(doc, from_dict):\n"
        "    return parse_frac(doc['q']), from_dict(doc)\n"
    )
    assert config_readers(tmp_path) == ["a:6", "a:7", "a:10"]


def _called(node: ast.AST) -> str | None:
    """The name a call calls, bare or as an attribute; None for anything else."""
    return getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None


def unvalidated_embeddings(package: Path) -> list[str]:
    """`Embedding(` calls that are not the first argument of a `_validated(` call,
    and `validate_embedding(` calls outside embedding.py, as module:line.

    Every embedding the package hands out passes one check, and only
    embedding._validated turns a failed check into an error.
    """
    found = []
    for module, tree in _parse_package(package).items():
        wrapped = {id(node.args[0]) for node in ast.walk(tree) if _called(node) == "_validated" and node.args}
        found += [
            f"{module}:{line}" for line in sorted(
                node.lineno for node in ast.walk(tree)
                if _called(node) == "Embedding" and id(node) not in wrapped
                or _called(node) == "validate_embedding" and module != "embedding"
            )
        ]
    return found


def test_every_embedding_is_validated_in_one_place():
    assert unvalidated_embeddings(PACKAGE) == []


def test_validation_guard_flags_a_second_check_and_a_bare_embedding(tmp_path):
    (tmp_path / "embedding.py").write_text(
        "class Embedding:\n    pass\n\n"
        "def validate_embedding(e):\n    return None\n\n"
        "def _validated(e, what):\n    validate_embedding(e)\n    return e\n\n"
        "def built():\n    return Embedding()\n"
    )
    (tmp_path / "a.py").write_text(
        "from . import embedding\nfrom .embedding import Embedding, _validated, validate_embedding\n\n"
        "def f(what):\n"
        "    ok = _validated(Embedding(), what)\n"
        "    problem = embedding.validate_embedding(ok)\n"
        "    return _validated(ok, Embedding()), validate_embedding, problem\n"
    )
    assert unvalidated_embeddings(tmp_path) == ["a:6", "a:7", "embedding:12"]


PAIR_SOURCES = ("_record_pairs", "_sampled_pairs")
PAIR_BUDGETS = ("PAIR_BUDGET", "EXPANSION_PAIR_BUDGET")


def unrouted_pair_checks(package: Path) -> list[str]:
    """`_record_pairs(` and `_sampled_pairs(` calls and reads of the two pair budgets,
    as module:line, outside pseudorandom._routed_pairs.

    Whether a check enumerates the disjoint (k, k) pair family or samples it
    is decided in one place, the router; a second caller would route on its own.
    """
    found = []
    for module, tree in _parse_package(package).items():
        routers = [node for node in tree.body if module == "pseudorandom"
                   and isinstance(node, ast.FunctionDef) and node.name == "_routed_pairs"]
        routed = {id(sub) for router in routers for sub in ast.walk(router)}
        found += [
            f"{module}:{line}" for line in sorted(
                node.lineno for node in ast.walk(tree) if id(node) not in routed and (
                    _called(node) in PAIR_SOURCES
                    or isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                    and getattr(node, "id", getattr(node, "attr", None)) in PAIR_BUDGETS
                )
            )
        ]
    return found


def test_every_pair_check_is_routed_in_one_place():
    assert unrouted_pair_checks(PACKAGE) == []


def test_pair_routing_guard_flags_a_second_caller(tmp_path):
    (tmp_path / "pseudorandom.py").write_text(
        "PAIR_BUDGET = EXPANSION_PAIR_BUDGET = 1\n\n"
        "def _routed_pairs(masks, k, expansion):\n"
        "    budget = EXPANSION_PAIR_BUDGET if expansion else PAIR_BUDGET\n"
        "    return _record_pairs(masks, k) if budget else _sampled_pairs(masks, k)\n\n"
        "def check(masks, k):\n"
        "    if len(masks) <= PAIR_BUDGET:\n"
        "        return _record_pairs(masks, k)\n"
    )
    (tmp_path / "a.py").write_text(
        "from . import pseudorandom\nfrom .pseudorandom import _sampled_pairs\n\n"
        "def f(masks, k, _routed_pairs):\n"
        "    pairs = pseudorandom._sampled_pairs(masks, k)\n"
        "    return pairs, _routed_pairs(masks, k), pseudorandom.EXPANSION_PAIR_BUDGET\n"
    )
    assert unrouted_pair_checks(tmp_path) == ["a:5", "a:6", "pseudorandom:8", "pseudorandom:9"]


SEED_MULTIPLIER = 1_000_003


def unowned_seed_mixes(package: Path) -> list[str]:
    """Integer literals equal to the seed mix's multiplier, however spelled,
    as module:line, outside graphs._seed.

    Every derived seed comes from that one function; a second copy of the
    mix would derive streams that it cannot name or change.
    """
    found = []
    for module, tree in _parse_package(package).items():
        owners = [node for node in tree.body if module == "graphs"
                  and isinstance(node, ast.FunctionDef) and node.name == "_seed"]
        owned = {id(sub) for owner in owners for sub in ast.walk(owner)}
        found += [
            f"{module}:{line}" for line in sorted(
                node.lineno for node in ast.walk(tree) if id(node) not in owned
                and isinstance(node, ast.Constant) and type(node.value) is int and node.value == SEED_MULTIPLIER
            )
        ]
    return found


def test_only_graphs_seed_mixes_seeds():
    assert unowned_seed_mixes(PACKAGE) == []


def test_seed_mix_guard_flags_a_second_spelling(tmp_path):
    (tmp_path / "graphs.py").write_text(
        "def _seed(seed, *index):\n"
        "    for i in index:\n"
        "        seed = seed * 1_000_003 + i\n"
        "    return seed\n\n"
        "def shuffle_seed(seed, u):\n"
        "    return seed * 1000003 + u\n"
    )
    (tmp_path / "a.py").write_text(
        "from .graphs import _seed\n\n"
        "def f(seed, _seed=0xF4243):\n"
        "    return _seed(seed, 1), seed * 1_000_033, '1_000_003', 1_000_003.0\n"
    )
    assert unowned_seed_mixes(tmp_path) == ["a:3", "graphs:7"]


def foreign_covers(package: Path) -> list[str]:
    """`PartitionResult(` calls outside partition.py, as module:line.

    Every cover comes from partition_two_coloured, which checks it with
    verify_partition; a cover built elsewhere would skip that check.
    """
    return [
        f"{module}:{line}" for module, tree in _parse_package(package).items() if module != "partition"
        for line in sorted(node.lineno for node in ast.walk(tree) if _called(node) == "PartitionResult")
    ]


def test_every_cover_is_built_in_partition():
    assert foreign_covers(PACKAGE) == []


def test_cover_guard_flags_a_cover_built_elsewhere(tmp_path):
    (tmp_path / "partition.py").write_text(
        "class PartitionResult:\n    pass\n\n"
        "def partition_two_coloured(blue, ell):\n    return PartitionResult()\n"
    )
    (tmp_path / "a.py").write_text(
        "from . import partition\nfrom .partition import PartitionResult\n\n"
        "def f(ell, n):\n"
        "    if ell:\n"
        "        return partition.PartitionResult(), PartitionResult\n"
        "    return PartitionResult((), (tuple(range(n)),))\n"
    )
    assert foreign_covers(tmp_path) == ["a:6", "a:7"]


def self_delegating_generators(package: Path) -> list[str]:
    """`yield from f(...)` or `yield from x.f(...)` in a function named f, as module:line.

    Such a generator holds one interpreter frame per level of its search, so
    a deep enough search raises RecursionError.  A search node yields its
    children to graphs._depth_first instead, which keeps them on a list.
    """
    return [
        f"{module}:{sub.lineno}"
        for module, tree in _parse_package(package).items()
        for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, ast.YieldFrom) and isinstance(sub.value, ast.Call)
        and getattr(sub.value.func, "attr", getattr(sub.value.func, "id", None)) == node.name
    ]


def test_no_generator_delegates_to_itself():
    assert self_delegating_generators(PACKAGE) == []


def test_recursion_guard_flags_a_generator_that_delegates_to_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def walk(n):\n"
        "    if n:\n"
        "        yield from walk(n - 1)\n"
        "    yield n\n\n"
        "def search(n):\n"
        "    def node(d):\n"
        "        yield from node(d - 1)\n"
        "    def driven(d):\n"
        "        yield driven(d - 1)\n"
        "    yield from _depth_first(driven(n))\n"
        "    yield from walk(n)\n\n"
        "class Tree:\n"
        "    def leaves(self):\n"
        "        for child in self.children:\n"
        "            yield from child.leaves()\n"
    )
    assert self_delegating_generators(tmp_path) == ["a:3", "a:8", "a:17"]


def _own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """The nodes of a function's body, without those of the functions and classes it defines."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def self_calling_functions(package: Path) -> list[str]:
    """Functions, as module.qualified.name, that are not generators and call themselves by bare name.

    Each such call takes an interpreter frame, so a deep enough input raises
    RecursionError.  A search node (graphs._depth_first) is a generator: the
    child f(...) it yields is a new node on the driver's list, not a call on
    the interpreter stack.
    """
    found = []
    for module, tree in _parse_package(package).items():
        todo = [(node, module, tree) for node in tree.body]
        while todo:
            node, scope, parent = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name, own = f"{scope}.{node.name}", list(_own_nodes(node))
                todo.extend((sub, name, node) for sub in own)
                if isinstance(node, ast.ClassDef) or isinstance(parent, ast.ClassDef):
                    continue  # a method's bare name is not the method
                if not any(isinstance(sub, (ast.Yield, ast.YieldFrom)) for sub in own) and any(
                    isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == node.name
                    for sub in own
                ):
                    found.append(name)
    return sorted(found)


# Recursions whose depth a constant bounds, with the bound.
BOUNDED_RECURSIONS = [
    "pseudorandom._members",  # one level per offset: span <= LEAF_SPAN = 13
]


def test_no_function_recurses_past_a_constant_depth():
    assert self_calling_functions(PACKAGE) == BOUNDED_RECURSIONS


def test_recursion_guard_flags_a_function_that_calls_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def fact(n):\n"
        "    return n * fact(n - 1) if n else 1\n\n"
        "def search(masks, n):\n"
        "    def grow(clique):\n"
        "        return grow(clique + [n]) if len(clique) < n else clique\n"
        "    def node(clique):\n"
        "        yield node(clique + [n])\n"
        "    return grow([]), list(_depth_first(node([])))\n\n"
        "def deep(n):\n"
        "    return [deep(i) for i in range(n)] + list(map(lambda i: deep(i), range(n)))\n\n"
        "def child(n):\n"
        "    yield child(n - 1)\n\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        return 1 + sum(c.size() for c in self.children)\n\n"
        "    def depth(self):\n"
        "        return depth(self)\n"
    )
    assert self_calling_functions(tmp_path) == ["a.deep", "a.fact", "a.search.grow"]
