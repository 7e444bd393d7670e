"""Access to the bundled example problem files."""

from __future__ import annotations

from pathlib import Path

_FIXTURES = Path(__file__).with_name("fixtures")


def list_bundled() -> list[str]:
    """Names of the bundled problem files, without extension."""
    return sorted(path.stem for path in _FIXTURES.glob("*.json"))


def bundled_problem(name: str) -> Path:
    """Filesystem path of a bundled problem file.

    Accepts the bare name (e.g. "rotation_2d") or the full file name.
    """
    if not name.endswith(".json"):
        name = name + ".json"
    path = _FIXTURES / name
    if not path.exists():
        raise FileNotFoundError(
            f"no bundled problem named {name!r}; available: {list_bundled()}"
        )
    return path
