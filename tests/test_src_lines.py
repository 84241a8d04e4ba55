"""The line counter of ``tools/src_lines.py``."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import src_lines  # noqa: E402

SOURCE = '''"""Module docstring,

over three lines."""
# a comment

x = """a string,

not a docstring"""


class A:
    """One line."""

    def f(self, y):  # code with a comment
        """Two
        lines."""
        return (y +
                1)
'''


def test_each_line_classified():
    assert src_lines.classify(SOURCE) == [
        "docstring", "docstring", "docstring", "comment", "blank",
        "code", "code", "code", "blank", "blank",
        "code", "docstring", "blank",
        "code", "docstring", "docstring", "code", "code",
    ]


def test_counts_sum_to_line_counts():
    table = src_lines.count(src_lines.tree_sources())
    for path, row in table.items():
        if path != "total":
            with open(os.path.join(src_lines.ROOT, path)) as fh:
                assert row["total"] == sum(1 for _ in fh) == sum(
                    row[k] for k in src_lines.KINDS)
    assert table["total"]["total"] == sum(
        row["total"] for path, row in table.items() if path != "total")
