import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "specnet"


def test_no_private_imports_across_modules():
    """A module imports only public names from its sibling modules."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level == 1 or (node.module or "").startswith("specnet")
            for alias in node.names if sibling else ():
                if alias.name.startswith("_"):
                    offenders.append("%s:%d imports %s" % (path.name, node.lineno, alias.name))
    assert not offenders, offenders
