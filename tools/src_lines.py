"""Count the code, docstring, comment and blank lines of ``src/``.

A line is a docstring line when it lies in a module, class or function
docstring (found with ``ast``), else a code line when it holds a
token other than a comment (found with ``tokenize``; every line of a
multi-line string or bracket counts), else a comment line when it holds
a comment, else blank. The four counts of a file sum to its line count,
as ``wc -l`` reports it.

Usage::

    python tools/src_lines.py              # the working tree
    python tools/src_lines.py --rev HEAD~1  # a commit, and the change
                                            # from it to the working tree
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


def classify(source):
    """The kind of each line of ``source``, in order."""
    lines = source.splitlines()
    kinds = ["blank" if not line.strip() else None for line in lines]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            kinds[doc.lineno - 1:doc.end_lineno] = (
                ["docstring"] * (doc.end_lineno - doc.lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        for row in range(tok.start[0], tok.end[0] + 1):
            kind = kinds[row - 1]
            if tok.type == tokenize.COMMENT:
                kinds[row - 1] = kind or "comment"
            elif kind != "docstring":
                kinds[row - 1] = "code"
    # a line no token covers, such as a lone backslash, continues code
    return [kind or "code" for kind in kinds]


def count(sources):
    """Per-file and total counts of ``{path: source}``."""
    table = {}
    for path, source in sorted(sources.items()):
        kinds = classify(source)
        table[path] = {k: kinds.count(k) for k in KINDS}
        table[path]["total"] = len(kinds)
    table["total"] = {k: sum(row[k] for row in table.values())
                      for k in KINDS + ("total",)}
    return table


def tree_sources():
    return {str(p.relative_to(ROOT)): p.read_text()
            for p in (ROOT / "src").rglob("*.py")}


def rev_sources(rev):
    def git(*args):
        return subprocess.run(("git", "-C", str(ROOT)) + args, check=True,
                              capture_output=True, text=True).stdout
    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src").split()
    return {p: git("show", f"{rev}:{p}") for p in paths if p.endswith(".py")}


def show(title, table):
    width = max(map(len, table))
    print(title)
    print(f"{'':{width}}  " + "  ".join(f"{k:>9}" for k in KINDS + ("total",)))
    for path, row in table.items():
        print(f"{path:{width}}  " + "  ".join(
            f"{row[k]:>9,}" for k in KINDS + ("total",)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", help="also count this git revision and "
                        "print the change from it")
    args = parser.parse_args(argv)
    now = count(tree_sources())
    show("working tree", now)
    if args.rev:
        then = count(rev_sources(args.rev))
        show(f"\n{args.rev}", then)
        print(f"\nchange from {args.rev}: " + ", ".join(
            f"{k} {now['total'][k] - then['total'][k]:+,}"
            for k in KINDS + ("total",)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
