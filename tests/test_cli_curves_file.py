"""`analyze --curves-file` with a file that holds no curve, with `--curve`, or
with a byte-order mark, CRLF line ends or bytes that are not UTF-8."""

import io
import re

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


def test_a_curve_given_with_a_file_is_bad_input(tmp_path, capsys):
    # one of the two would go unread: a usage error, not a silent choice
    path = tmp_path / "curves.txt"
    path.write_text("y^2 - x^3\n", encoding="utf-8")
    out = io.StringIO()
    code = main(["analyze", "--curve=y^2-x^5", f"--curves-file={path}", "--point=0,0"], out=out)
    assert code == 2 and out.getvalue() == ""
    assert capsys.readouterr().err == "error: give --curve or --curves-file, not both\n"


def test_a_file_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    path = tmp_path / "curves.txt"
    path.write_bytes(b"x^3-y^3 # caf\xe9\n")
    out = io.StringIO()
    code = main(["analyze", f"--curves-file={path}", "--point=0,0"], out=out)
    assert code == 2 and out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and "can't decode byte 0xe9" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_byte_order_mark_and_crlf_line_ends_read_as_the_plain_file(tmp_path, json_flag):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"x^3-y^3+x^4\n# a cusp\ny^2-x^3\n")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbfx^3-y^3+x^4\r\n# a cusp\r\ny^2-x^3\r\n")
    outputs = []
    for path in (plain, marked):
        out = io.StringIO()
        assert main(["analyze", f"--curves-file={path}", "--point=0,0", *json_flag],
                    out=out) == 0
        outputs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue()))
    assert outputs[0] == outputs[1]
    assert "x^3-y^3+x^4" in outputs[0]
