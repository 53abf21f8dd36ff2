# Lines of code in src/dpcylinders/ and tests/, and in each of their
# modules: not blank lines, comments or docstrings; and the number of
# modules in each, so that a module removed or added shows.  Run from the
# repo root:
#   python3 .github/loc.py [BASE]
# where BASE, when given, is a tree of the base to report the net change against.
import ast, sys, tokenize
from pathlib import Path
skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DIRS = ("src/dpcylinders", "tests")
def code_lines(path):
    source = path.read_bytes()
    lines = {line for tok in tokenize.tokenize(iter(source.splitlines(True)).__next__)
             if tok.type not in skip for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)
def count(root):
    return {d + "/": sum(map(code_lines, Path(root, d).glob("*.py"))) for d in DIRS}
def module_count(root):
    return {d + "/": len(list(Path(root, d).glob("*.py"))) for d in DIRS}
def modules(root):
    return {str(path.relative_to(root)): code_lines(path)
            for d in DIRS for path in Path(root, d).glob("*.py")}
def report(head, base, what="lines of code"):
    for name in sorted(head.keys() | (base or {}).keys()):
        n = head.get(name, 0)
        print(f"{name} {what}: HEAD {n}" + (
            f", base {base.get(name, 0)}, net {n - base.get(name, 0):+d}" if base else ""))
# HEAD is the working directory; the base, when given, a tree of it
bases = sys.argv[1:2]
head, base = count("."), count(bases[0]) if bases else None
report(head, base)
report(module_count("."), module_count(bases[0]) if bases else None, "modules")
if base:
    print(f"src/ and tests/ net: {sum(head.values()) - sum(base.values()):+d} lines of code")
# each module of src/ and tests/ too, so that code or a check moved
# between modules shows
report(modules("."), modules(bases[0]) if bases else None)
