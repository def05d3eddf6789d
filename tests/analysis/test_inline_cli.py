"""Decompile results through ``python -m repro.analysis``."""

from pathlib import Path

from repro.analysis.lint import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestInlineSubcommand:
    def test_inlinable_udf_prints_lifted_sql(self, tmp_path, capsys):
        target = _write(
            tmp_path, "plus1.jag",
            "def plus1(x: int) -> int:\n    return x + 1\n",
        )
        assert main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "inline: inlinable" in out
        assert "($1 + 1)" in out

    def test_branch_prints_case(self, tmp_path, capsys):
        target = _write(
            tmp_path, "clip.jag",
            "def clip(x: int) -> int:\n"
            "    if x < 0:\n"
            "        return 0\n"
            "    return x\n",
        )
        assert main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "CASE WHEN ($1 < 0) THEN 0 ELSE $1 END" in out

    def test_refused_udf_prints_reason_code(self, tmp_path, capsys):
        target = _write(
            tmp_path, "loop.jag",
            "def s(n: int) -> int:\n"
            "    total: int = 0\n"
            "    i: int = 0\n"
            "    while i < n:\n"
            "        total = total + i\n"
            "        i = i + 1\n"
            "    return total\n",
        )
        assert main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "inline: refused (loop)" in out

    def test_callback_refusal(self, tmp_path, capsys):
        target = _write(
            tmp_path, "cb.jag",
            "def ping(x: int) -> int:\n"
            "    cb_noop()\n"
            "    return x\n",
        )
        assert main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "inline: refused (callback)" in out

    def test_directory_target_covers_examples(self, capsys):
        assert main([str(EXAMPLES)]) == 0
        out = capsys.readouterr().out
        # At least one real example lifts and at least one refuses.
        assert "inline: inlinable" in out
        assert "inline: refused (" in out

    def test_load_failure_exits_two(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.jag", "def broken(:::\n")
        # Unanalyzable input is never a clean run: exit 2, strict or not.
        assert main([str(bad)]) == 2
        assert main(["--strict", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "cannot load" in out

    def test_refusals_do_not_fail_strict(self, tmp_path):
        target = _write(
            tmp_path, "loop.jag",
            "def spin(n: int) -> int:\n"
            "    total: int = 0\n"
            "    i: int = 0\n"
            "    while i < n:\n"
            "        total = total + 1\n"
            "        i = i + 1\n"
            "    return total\n",
        )
        assert main(["--strict", str(target)]) == 0

    def test_python_file_with_embedded_payload(self, tmp_path, capsys):
        target = _write(
            tmp_path, "app.py",
            'PAYLOAD = "def dbl(x: int) -> int:\\n    return x * 2"\n',
        )
        assert main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "inline: inlinable" in out
        assert "($1 * 2)" in out
