"""The README's library example prints what its comments say it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = _library_example()
    # each print line's comment opens with the printed text: "# True: the gap ..." promises "True"
    expected = [re.match(r"[^\s:]+", line.split("#", 1)[1].strip()).group(0)
                for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
