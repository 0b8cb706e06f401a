"""Golden CLI outputs: fixed calls whose exact stdout, stderr and exit code
are pinned in ``golden_cli.json``.

The file was recorded once from the CLI and is never regenerated by a test
option or an environment variable: an intended change of output edits the
file in the same commit that changes the output.  Only the ``elapsed_ms``
field of ``analyze --json`` is masked, since it is a wall-clock reading.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from tjurina.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def test_golden_file_covers_every_command():
    commands = {row["argv"][0] for row in GOLDEN}
    assert commands == {"analyze", "classify", "global-tjurina", "family"}
    assert len(GOLDEN) >= 60


@pytest.mark.parametrize("row", GOLDEN, ids=[f"{i:02d}-{row['argv'][0]}" for i, row in enumerate(GOLDEN)])
def test_cli_reproduces_golden_output(row):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(row["argv"]), out=out)
    assert code == row["exit"]
    assert _ELAPSED.sub('"elapsed_ms": "*"', out.getvalue()) == row["stdout"]
    assert err.getvalue() == row["stderr"]
