"""The README's library quick start runs as written."""

from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quick_start():
    """The first python block under "## Library quick start"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start\n"):]
    body = section[section.index("```python\n") + len("```python\n"):]
    return body[:body.index("```\n")]


def test_the_library_quick_start_runs():
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert namespace["path"].end == namespace["tau"]
