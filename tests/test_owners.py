"""Each front-end decision and the fold list have one owner module.

pcgnet.model spells the front-end family: the NetworkConfig values of
`frontend` and `init` and their CLI aliases, in FRONTENDS and INITS.
Every other module reads them from there. pcgnet.data spells the
validation folds (VALIDATION_FOLDS), so the CLI takes its --fold choices
from it instead of a range of its own. pcgnet.dsp.next_fast_len sizes
every FFT frame of a linear convolution; next_pow2 is called only where a
power of two is the point (POW2_SITES).

This scans the source of src/pcgnet/*.py, docstrings skipped, so a second
copy fails here even if no test runs the path that holds it.
"""

import ast
from pathlib import Path

from pcgnet.model import FRONTENDS, INITS

SRC = Path(__file__).resolve().parent.parent / "src" / "pcgnet"

CONFIG_VALUES = {"external_fir", "tconv_free", "tconv_lp", "tconv_zp",
                 "fir_bank", "random", "zeros"}
CLI_ALIASES = {"baseline", "tconv", "lp", "zp", "fir"}
OWNER = "model"
# the LTSA's spectral resolution and ingest's autocorrelation frame
POW2_SITES = {"dsp.ltsa", "data._period_estimate"}


def _docstrings(tree) -> set[int]:
    """ids of the docstring nodes of a module and its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def stray_sites(src: Path = SRC) -> list[str]:
    """`module:line what` of every front-end literal outside the owner
    module and of every `choices=range(...)`."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docs and path.stem != OWNER):
                if node.value in CONFIG_VALUES:
                    out.append(f"{path.stem}:{node.lineno} config value {node.value!r}")
                elif node.value in CLI_ALIASES:
                    out.append(f"{path.stem}:{node.lineno} CLI alias {node.value!r}")
            elif (isinstance(node, ast.keyword) and node.arg == "choices"
                  and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Name) and node.value.func.id == "range"):
                out.append(f"{path.stem}:{node.value.lineno} choices=range(...)")
    return out


def test_scan_lists_cover_the_model_tables():
    assert CONFIG_VALUES == set(FRONTENDS) | set(INITS)
    aliases = {a for a, *_ in FRONTENDS.values()} | {a for a, _ in INITS.values()}
    # "random" and "zeros" are their own aliases, so they count as config values
    assert CLI_ALIASES == aliases - CONFIG_VALUES


def test_front_end_names_and_fold_choices_have_one_owner():
    stray = stray_sites()
    assert not stray, "a second copy of a model.py or data.py decision:\n" + "\n".join(stray)


def test_scan_sees_each_kind_of_site(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Docstrings may name external_fir and lp."""\n'
        "def f(p):\n"
        '    """Nor is "zp" here."""\n'
        '    p.add_argument("--fold", choices=range(4))\n'
        '    return {"lp": "tconv_lp"}, "help", "lp-tconv"\n')
    (tmp_path / f"{OWNER}.py").write_text('FRONTENDS = {"tconv_lp": ("lp",)}\n')
    assert stray_sites(tmp_path) == [
        "m:4 choices=range(...)", "m:5 CLI alias 'lp'", "m:5 config value 'tconv_lp'"]


class _Pow2Calls(ast.NodeVisitor):
    """`module.function:line` of each next_pow2 call, by name or attribute."""

    def __init__(self, module: str):
        self.scope = [module]      # module, then enclosing classes and functions
        self.calls: list[str] = []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "next_pow2":
            self.calls.append(f"{'.'.join(self.scope)}:{node.lineno}")
        self.generic_visit(node)


def pow2_frames(src: Path = SRC) -> list[str]:
    """`module.function:line` of every next_pow2 call outside POW2_SITES."""
    out = []
    for path in sorted(src.glob("*.py")):
        scan = _Pow2Calls(path.stem)
        scan.visit(ast.parse(path.read_text(), str(path)))
        out.extend(c for c in scan.calls if c.rsplit(":", 1)[0] not in POW2_SITES)
    return out


def test_fft_convolution_frames_have_one_owner():
    stray = pow2_frames()
    assert not stray, ("next_pow2 outside the LTSA and the period estimate; size an FFT "
                       "convolution with dsp.next_fast_len:\n" + "\n".join(stray))


def test_pow2_scan_sees_each_call(tmp_path):
    (tmp_path / "m.py").write_text(
        "from pcgnet import dsp\n"
        "from pcgnet.dsp import next_pow2\n"
        "class C:\n"
        "    def f(self, n):\n"
        "        return next_pow2(n) + dsp.next_pow2(n)\n"
        "def ltsa(n):\n"
        "    return dsp.next_fast_len(n)\n"
        "N = next_pow2(5)\n")
    (tmp_path / "dsp.py").write_text(
        "def ltsa(n):\n"
        "    return next_pow2(n)\n"
        "def decompose(n):\n"
        "    def frame():\n"
        "        return next_pow2(n)\n"
        "    return frame()\n")
    assert pow2_frames(tmp_path) == ["dsp.decompose.frame:5", "m.C.f:5", "m.C.f:5", "m:8"]
