"""tools/code_lines.py: what counts as a code line."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 7 code lines: the import, the class and def lines, and both lines of the
# assignment and of the return. Blank, comment and docstring lines do not
# count; a string that is not a docstring counts on every line it spans
SOURCE = '''"""Module docstring,
over two lines."""

import os

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """not a
docstring"""
        return (x +  # a trailing comment
                len(s))
'''


def test_counts_a_synthetic_file(tmp_path, capsys):
    assert code_lines.code_lines(SOURCE) == 7
    a, b = tmp_path / "a.py", tmp_path / "sub" / "b.py"
    b.parent.mkdir()
    a.write_text(SOURCE)
    b.write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7 {a}", f"     1 {b}", "     8 total (2 files)"]
