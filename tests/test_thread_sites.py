"""The package starts threads in two places and takes sha256 digests in two.

autodiff.run_split starts the stage pool and data._digest_later the digest
thread; data._sha256 hashes every input and output and cli.main the train
config. perfbench's span stack is shared by all threads, so a thread that
ran a traced function would break its span nesting: a new thread belongs
in one of these places or needs the tracer's attention first.

This scans the source of src/pcgnet/*.py, so a thread or a digest started
anywhere else fails here even if no test runs that path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcgnet"

# (module.function, what it calls): the only thread and digest sites
ALLOWED = {
    ("autodiff.run_split", "ThreadPoolExecutor"),
    ("data._digest_later", "ThreadPoolExecutor"),
    ("data._sha256", "hashlib.sha256"),
    ("cli.main", "hashlib.sha256"),
}
# call name -> how the scan reports it, whether called by attribute or by name
WATCHED = {"ThreadPoolExecutor": "ThreadPoolExecutor", "Thread": "threading.Thread",
           "sha256": "hashlib.sha256"}


class _Scan(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []          # enclosing classes and functions
        self.sites: list[tuple[str, str, int]] = []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WATCHED:
            self.sites.append((".".join([self.module, *self.scope]), WATCHED[name],
                               node.lineno))
        self.generic_visit(node)


def thread_and_digest_sites(src: Path = SRC) -> list[tuple[str, str, int]]:
    """(module.function, call, line) of every thread start and sha256 call."""
    sites = []
    for path in sorted(src.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(), str(path)))
        sites.extend(scan.sites)
    return sites


def test_threads_and_digests_only_at_their_sites():
    sites = thread_and_digest_sites()
    stray = [f"{where}:{line} calls {name}" for where, name, line in sites
             if (where, name) not in ALLOWED]
    assert not stray, "a thread or digest outside its sites:\n" + "\n".join(stray)
    # and each site still holds its call, once
    assert sorted((where, name) for where, name, _ in sites) == sorted(ALLOWED)


def test_scan_sees_each_kind_of_site(tmp_path):
    (tmp_path / "m.py").write_text(
        "import hashlib, threading\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from hashlib import sha256\n"
        "class C:\n"
        "    def f(self, blob):\n"
        "        ThreadPoolExecutor(1)\n"
        "        futures.ThreadPoolExecutor(2)\n"
        "        threading.Thread(target=print)\n"
        "        hashlib.sha256(blob)\n"
        "        sha256(blob)\n"
        "        hashlib.md5(blob)\n")
    assert thread_and_digest_sites(tmp_path) == [
        ("m.C.f", "ThreadPoolExecutor", 7), ("m.C.f", "ThreadPoolExecutor", 8),
        ("m.C.f", "threading.Thread", 9), ("m.C.f", "hashlib.sha256", 10),
        ("m.C.f", "hashlib.sha256", 11)]
