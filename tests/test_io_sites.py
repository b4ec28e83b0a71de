"""The package's file I/O goes through four functions of pcgnet.data:
read_input opens every file read, write_output every file written,
read_csv holds the one csv.reader and write_csv the one csv.writer.

This scans the source of src/pcgnet/*.py, so a file opened anywhere else
fails here even if no test runs that path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcgnet"

# (module.function, what it may call): the only I/O sites of the package
ALLOWED = {
    ("data.read_input", "open"),
    ("data.write_output", "open"),
    ("data.read_csv", "csv.reader"),
    ("data.write_csv", "csv.writer"),
}
CSV_CALLS = {"reader", "writer", "DictReader", "DictWriter"}


def _is_bytes_io(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "BytesIO")


class _Scan(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []          # enclosing classes and functions
        self.buffers: list[set[str]] = [set()]    # names bound to io.BytesIO(), per function
        self.sites: list[tuple[str, str, int]] = []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.buffers.append({t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
                             and _is_bytes_io(n.value)
                             for t in n.targets if isinstance(t, ast.Name)})
        self.generic_visit(node)
        self.scope.pop()
        self.buffers.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = self._io_name(node)
        if name is not None:
            where = ".".join([self.module, *self.scope])
            self.sites.append((where, name, node.lineno))
        self.generic_visit(node)

    def _io_name(self, node) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            return "open" if func.id == "open" else None
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if func.attr in ("write_text", "write_bytes"):
            return f"Path.{func.attr}"
        if owner == "csv" and func.attr in CSV_CALLS:
            return f"csv.{func.attr}"
        if func.attr != "open":
            return None
        if owner == "wave":
            # wave on an in-memory buffer parses or builds bytes, it opens no file
            first = node.args[0] if node.args else None
            in_memory = _is_bytes_io(first) or (isinstance(first, ast.Name)
                                                and first.id in self.buffers[-1])
            return None if in_memory else "wave.open"
        return f"{owner or '?'}.open"


def io_sites(src: Path = SRC) -> list[tuple[str, str, int]]:
    """(module.function, call, line) of every file-opening or csv call."""
    sites = []
    for path in sorted(src.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(), str(path)))
        sites.extend(scan.sites)
    return sites


def test_file_io_only_in_the_four_data_functions():
    sites = io_sites()
    stray = [f"{where}:{line} calls {name}" for where, name, line in sites
             if (where, name) not in ALLOWED]
    assert not stray, "file I/O outside data.read_input/write_output/read_csv/write_csv:\n" \
        + "\n".join(stray)
    # and each of the four still holds its call, once
    assert sorted((where, name) for where, name, _ in sites) == sorted(ALLOWED)


def test_scan_sees_each_kind_of_site(tmp_path):
    (tmp_path / "m.py").write_text(
        "import csv, io, wave\n"
        "def f(path, fh):\n"
        "    open(path)\n"
        "    path.open('rb')\n"
        "    path.write_text('x')\n"
        "    path.write_bytes(b'x')\n"
        "    wave.open(str(path), 'wb')\n"
        "    csv.reader(fh)\n"
        "    csv.writer(fh)\n"
        "def g(blob):\n"
        "    buf = io.BytesIO()\n"
        "    wave.open(buf, 'wb')\n"
        "    wave.open(io.BytesIO(blob))\n")
    assert [name for _, name, _ in io_sites(tmp_path)] == [
        "open", "path.open", "Path.write_text", "Path.write_bytes", "wave.open",
        "csv.reader", "csv.writer"]
