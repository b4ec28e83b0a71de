"""pytest's `pythonpath` setting puts this checkout's src/ on sys.path of
the test process; this puts it on PYTHONPATH as well, so the tests that
run `python -m pcgnet.cli` in a subprocess import the same package."""

import os
from pathlib import Path


def pytest_configure(config):
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
