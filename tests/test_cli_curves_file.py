"""`analyze --curves-file` with a file that holds no curve."""

import io

import pytest

from tjurina.cli import main


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_file_without_a_curve_is_bad_input(tmp_path, capsys, json_flag):
    path = tmp_path / "curves.txt"
    path.write_text("\n# x^2 - y^3\n   \n#\n", encoding="utf-8")
    out = io.StringIO()
    code = main(["analyze", f"--curves-file={path}", "--point=0,0", *json_flag], out=out)
    assert code == 2 and out.getvalue() == ""
    assert capsys.readouterr().err == f"error: no curve in {path}\n"


def test_a_file_with_one_curve_among_comments_is_analyzed(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("# a cusp\n\ny^2 - x^3\n", encoding="utf-8")
    out = io.StringIO()
    assert main(["analyze", f"--curves-file={path}", "--point=0,0"], out=out) == 0
    assert "A_2 (tau = 2)" in out.getvalue()
