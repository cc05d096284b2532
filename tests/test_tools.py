"""tools/code_lines.py, the code-line count of ROADMAP aim 2."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

import math  # a comment


class Box:
    """One line."""

    def area(self, w,
             h):
        # a comment line
        """Still the docstring: the body's first statement, after a
        comment."""
        s = """a string
that is code"""

        return w * h + len(s)


def f():
    return math.pi
'''


def test_code_lines_counts_code_and_not_docstrings_comments_or_blanks():
    # import, class, def over two lines, s = over two lines, return; def, return
    assert code_lines.code_lines(SNIPPET) == 9
    assert code_lines.docstring_lines(code_lines.ast.parse(SNIPPET)) == {1, 2, 8, 13, 14}


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["9", "1", "10"]
    assert out[-1].endswith("total")


def test_code_lines_ranks_top_level_functions_and_classes(tmp_path, capsys):
    # Box: class, def over two lines, s = over two lines, return; f: def,
    # return; a decorator line counts with its function
    assert code_lines.function_lines(SNIPPET) == [(6, "Box"), (2, "f")]
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("import functools\n\n\n@functools.cache\ndef g(\n        x):\n"
                                   "    return x\n")
    assert code_lines.main(["--functions", str(tmp_path)]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert out == [["6", f"{tmp_path / 'a.py'}:Box"], ["4", f"{tmp_path / 'b.py'}:g"],
                   ["2", f"{tmp_path / 'a.py'}:f"]]
