import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_block() -> str:
    text = README.read_text()
    section = text.split("## Quick start (API)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs_and_its_comments_hold():
    namespace: dict = {}
    exec(_quick_start_block(), namespace)
    assert namespace["report"].verdict == "TimeDependentMarkovian-Nondivisible"
    assert namespace["flow"].value == 0.0
    assert namespace["report"].measure.value == 0.0
    assert namespace["rates"].gamma3 < 0.0
