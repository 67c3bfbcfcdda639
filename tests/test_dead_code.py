"""Guard against dead code: every module-level function or class in the
package is exported from __init__.py or referenced elsewhere in the package,
and every option a CLI subcommand declares is read by its handler."""

from __future__ import annotations

import argparse
import ast
import inspect
import textwrap
from pathlib import Path

from pathramsey.cli import build_parser

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pathramsey"


def _definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _references(node: ast.AST) -> set[str]:
    """Names read, attributes accessed and names imported under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unreferenced_definitions(package: Path) -> list[str]:
    """Module-level definitions that nothing outside their own body names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    exported = _references(trees["__init__"])
    tops = [(top, _references(top)) for tree in trees.values() for top in tree.body]
    dead = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            used = exported.union(*(refs for top, refs in tops if top is not node))
            if node.name not in used:
                dead.append(f"{module}.{node.name}")
    return dead


def test_no_unreferenced_module_level_definitions():
    assert unreferenced_definitions(PACKAGE) == []


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return _helper()\n\n"
        "def _helper():\n    return 1\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a._dead"]


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
