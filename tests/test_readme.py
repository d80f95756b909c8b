"""The python blocks of README.md run, in order, in one namespace.

A line ``print(...)  # text`` documents what it prints: the printed line
must be the start of ``text`` (so ``# True: cleft frames are flat``
documents ``True``).
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
PRINT_COMMENT = re.compile(r"^print\(.*\)\s+#\s*(.*)$", re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


def test_python_blocks_run_and_print_what_they_say():
    namespace = {"__name__": "readme"}
    for block in BLOCKS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed = out.getvalue().splitlines()
        documented = PRINT_COMMENT.findall(block)
        assert len(printed) == len(documented), block
        for line, comment in zip(printed, documented):
            assert comment.startswith(line), (line, comment)
