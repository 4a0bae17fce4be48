"""README checks: the library example runs, and no run time is written down."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of README's section ``## title``, up to the next section."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs():
    code = re.search(r"```python\n(.*?)```", section("Library use"), re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})


def test_readme_holds_no_run_times():
    # README says what the program does; run times and memory peaks go with
    # each change in CHANGES.md, so they cannot pile up here
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    prose = re.sub(r"`[^`]*`", "", prose)
    assert not re.findall(r"\d\s*(?:s|ms|µs|us|MB)\b", prose)
    assert "CPU time" not in prose and "timeit" not in prose
