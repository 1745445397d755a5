"""Every public name has a caller inside the package or a use in the
README example, the README example runs and shows what it states, no
module imports a sibling's private name, and the package version is the
one pyproject.toml declares."""
import ast
import re
from pathlib import Path

import qmodadd

ROOT = Path(__file__).resolve().parents[1]


def _names_read(tree: ast.AST, skip: str = "") -> set[str]:
    """Names and attributes that `tree` reads, outside the body of a
    function or class named `skip`; imports, strings and comments do not
    count."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _readme_source() -> str:
    """The "Library surface" code block of README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _readme_example() -> ast.Module:
    """The README code block without its imports."""
    tree = ast.parse(_readme_source())
    tree.body = [s for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom))]
    return tree


def test_every_public_name_is_used_or_documented():
    modules = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "qmodadd").glob("*.py"))
        if path.name != "__init__.py"
    ]
    example = _names_read(_readme_example())
    unused = [
        name for name in qmodadd.__all__
        if name not in example
        and not any(name in _names_read(module, skip=name) for module in modules)
    ]
    assert unused == []


def test_readme_example_shows_its_values():
    # Run the block statement by statement, imports included; a comment
    # that starts with a value (`# 13`, `# array([13, 0])`) states what
    # the expression before it returns.
    source = _readme_source()
    lines = source.splitlines()
    namespace: dict = {}
    shown, values = [], []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        claim = re.match(r".*  # (array\(\[.*?\]\)|\d+\b)", lines[stmt.end_lineno - 1])
        if claim:
            shown.append(claim.group(1))
            values.append(" ".join(repr(value).split()))
    assert shown == ["13", "array([13, 0])", "14", "14", "32", "0"]
    assert values == shown
    assert eval("mod_add_plus_one(4, 16, 1)", namespace) == 1


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted((ROOT / "src" / "qmodadd").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_package_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert found is not None and found.group(1) == qmodadd.__version__
