"""The README's library example runs as printed."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs():
    scope: dict = {}
    exec(compile(quick_start_code(), str(README), "exec"), scope)
    bundle, report = scope["bundle"], scope["report"]
    assert (bundle.grid.M, bundle.certified) == (100, True)
    assert report.passed
