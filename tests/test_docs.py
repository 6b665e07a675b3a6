"""The documentation's imports resolve.

Every ``from repro… import …`` line in ``README.md`` and ``docs/*.md``
is executed against the package, so a renamed or deleted name cannot
linger in an example that readers copy.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
_IMPORT = re.compile(r"^\s*(from repro[\w.]* import .+)$")


def _imports(path: Path) -> list[tuple[int, str]]:
    return [(lineno, match.group(1))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if (match := _IMPORT.match(line))]


def test_the_docs_show_imports():
    assert sum(len(_imports(path)) for path in DOCS) > 0


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_doc_imports_resolve(path):
    broken = []
    for lineno, statement in _imports(path):
        try:
            exec(statement, {})
        except ImportError as exc:
            broken.append(f"{path.name}:{lineno}: {statement} ({exc})")
    assert broken == []
