"""Every public name has a caller inside the package or a use in the
README example, and the package version is the one pyproject.toml
declares."""
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


def _readme_example() -> ast.Module:
    """The "Library surface" code block of README, without its imports."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1]
    tree = ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])
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


def test_package_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert found is not None and found.group(1) == qmodadd.__version__
