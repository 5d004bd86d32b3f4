"""Guard against test-only code in the package: every public module-level
function, class or constant of ``src/zenosat``, and every public method,
property or dataclass field of its public classes, must be read somewhere in
the package or in the benchmark, not only by the tests. Re-exports in
``__init__.py`` and the benchmark's own tests do not count as readers. A
module-level name is read by a loaded name, an attribute or an identifier
string; a class member only by an attribute access, or by an identifier
string in the benchmark (which patches callables by name), so a local
variable, spec key or CSV header that shares a member's name does not count.
A name the tests alone need belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zenosat"


def _members(cls: ast.ClassDef) -> list[str]:
    """Methods and properties (functions in the body) and dataclass fields."""
    return [
        node.name if isinstance(node, ast.FunctionDef) else node.target.id
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        or isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public module-level names, and Class.member for each public class."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.append(node.name)
            if not node.name.startswith("_"):
                names += [f"{node.name}.{member}" for member in _members(node)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.rpartition(".")[2].startswith("_")]


def _reads(tree: ast.Module) -> dict[str, set[str]]:
    """Names loaded, attributes accessed, and identifier strings. An
    attribute of ``args``, the argparse namespace by convention, reads a
    command-line option, not a member of the package, so it does not count."""
    out = {"names": set(), "attributes": set(), "strings": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out["names"].add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                out["attributes"].add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out["strings"].add(node.value)
    return out


def _union(paths, kind: str) -> set[str]:
    return set().union(*(_reads(ast.parse(p.read_text()))[kind] for p in paths))


def test_every_public_name_has_a_reader_outside_the_tests():
    package = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    members = _union(package + bench, "attributes") | _union(bench, "strings")
    module_level = members | _union(package + bench, "names") | _union(package, "strings")
    unread = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in _public_definitions(ast.parse(module.read_text()))
        if name.rpartition(".")[2] not in (members if "." in name else module_level)
    ]
    assert not unread, f"read only by tests, move to tests/oracles.py: {unread}"
