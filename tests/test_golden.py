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


# Two global-tjurina rows pinned here, beside golden_cli.json.  Each curve has
# a fractional coefficient, which the packed gradient clears; the first has a
# square factor, so it is non-reduced and its value is null.
GRADIENT_ROWS = [
    ("1/2*x0*(x1-x2)^2*(x0+x1+x2)", None, []),
    ("(x0-1/2*x1)*(x1+x2)*(x0+3*x2)*x1", 6, [1, 3, 6, 7, 6, 6, 6, 6, 6, 6]),
]


@pytest.mark.parametrize("curve, tau, hf", GRADIENT_ROWS, ids=["non-reduced", "reduced"])
def test_global_tjurina_of_a_fractional_product_reproduces_golden_output(curve, tau, hf):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["global-tjurina", f"--curve={curve}", "--json", "--trace"], out=out)
    doc = {"version": "0.1.0", "curve": curve, "global_tjurina": tau, "warnings": [],
           "hilbert_function": hf}
    assert (code, out.getvalue(), err.getvalue()) == (0, json.dumps(doc, indent=2) + "\n", "")
