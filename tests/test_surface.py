"""Every public name has a caller inside the package or is documented."""
import re
from pathlib import Path

import qmodadd

ROOT = Path(__file__).resolve().parents[1]


def _library_surface_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_public_name_is_used_or_documented():
    lines = [
        line
        for path in sorted((ROOT / "src" / "qmodadd").glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    documented = _library_surface_block()
    unused = []
    for name in qmodadd.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(
            rf"^\s*(?:def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*[:=]"
        )
        used = any(word.search(line) and not definition.match(line) for line in lines)
        if not (used or word.search(documented)):
            unused.append(name)
    assert unused == []
