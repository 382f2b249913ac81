"""The trusted base: the lines of code a verifier's PASS rests on.

``isotower.verify`` and every module it reaches through ``from .x import``
edges make up the code that must be right for a PASS to mean the theorem
holds.  The count is pinned here so that growing it is a visible decision:
the pin may go down with the code, and goes up only with a reason recorded
in CHANGES.md.  Run this file as a script to print the count:

    python tests/test_trusted_base.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isotower"

# errors, serialize, sqrt, tower and verify
TRUSTED_LINES = 2488


def _local_imports(path: Path) -> set[str]:
    """The sibling modules that ``path`` imports with ``from .x import`` or
    ``from . import x``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return {name for name in names if (PACKAGE / f"{name}.py").is_file()}


def trusted_modules(root: str = "verify") -> list[str]:
    """``root`` and every package module it reaches by relative imports."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_local_imports(PACKAGE / f"{name}.py"))
    return sorted(seen)


def trusted_lines() -> int:
    """The line count of the verifier's import closure."""
    return sum(len((PACKAGE / f"{name}.py").read_text().splitlines()) for name in trusted_modules())


def test_trusted_modules():
    assert trusted_modules() == ["errors", "serialize", "sqrt", "tower", "verify"]


def test_trusted_lines_match_the_pin():
    count = trusted_lines()
    assert count <= TRUSTED_LINES, (
        f"the verifier's trusted base grew from {TRUSTED_LINES} to {count} lines; "
        "raise the pin only with a reason in CHANGES.md"
    )
    assert count == TRUSTED_LINES, f"the trusted base shrank to {count} lines: lower the pin"


if __name__ == "__main__":
    print(f"trusted base: {trusted_lines()} lines in {', '.join(trusted_modules())}")
