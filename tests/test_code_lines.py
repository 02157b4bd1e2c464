"""The code-line counter that the simplicity figures in CHANGES.md use."""

from code_lines import code_lines

_MODULE = '''"""A module docstring
over two lines."""

# A comment line.
import os


def f(x):
    """A function docstring
    over two lines."""
    text = """a string
that is no docstring"""
    return x + len(text)  # a trailing comment
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, text (2 lines), return.
    assert code_lines(_MODULE) == 5


def test_code_lines_counts_a_class_docstring_out():
    assert code_lines('class C:\n    """Doc."""\n\n    x = 1\n') == 2
