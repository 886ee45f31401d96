"""tools/src_lines.py counts every line, and code lines: no blank, comment or
docstring line."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# the code lines are marked "# code"; the rest are blank, comment or docstring
FIXTURE = '''"""A module docstring
over two lines."""

# a comment

import os  # code


class A:  # code
    "A one-line class docstring."

    def f(self, x):  # code
        """A function docstring
        over two lines."""
        y = (x +  # code
             1)  # code
        s = """not a docstring,  # code
        but a string"""  # code
        return s, y  # code


async def g():  # code
    """An async docstring."""
    return [  # code

        os.sep,  # code
    ]  # code
'''


def test_counts_each_kind_of_line():
    lines = FIXTURE.splitlines()
    code = sum("# code" in line for line in lines)
    assert src_lines.count(FIXTURE) == (len(lines), code) == (27, 12)


def test_table_ends_with_the_totals(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        path = tmp_path / name
        path.write_text(FIXTURE, encoding="utf-8")
        paths.append(str(path))
    assert src_lines.main(paths) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "lines", "code"]
    assert rows[1:] == [["a.py", "27", "12"], ["b.py", "27", "12"], ["total", "54", "24"]]
