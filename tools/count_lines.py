"""Code, docstring, comment and blank lines per module of a package.

    python3 tools/count_lines.py [src/momentpool]

A line inside a module, class or function docstring is a docstring line,
blank or not; of the rest, a blank line is blank, a line holding only a
comment is a comment line, and every other line is code.
"""

import ast
import pathlib
import sys

KINDS = ("code", "doc", "comment", "blank", "total")
root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src/momentpool")
rows = {}
for path in sorted(root.glob("*.py")):
    text = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    row = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        row["doc" if i in doc else "blank" if not s
            else "comment" if s.startswith("#") else "code"] += 1
        row["total"] += 1
    rows[path.stem] = row
rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
print(f"{'module':12}" + "".join(f"{k:>8}" for k in KINDS))
for name, row in rows.items():
    print(f"{name:12}" + "".join(f"{row[k]:>8}" for k in KINDS))
