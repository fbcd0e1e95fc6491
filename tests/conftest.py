"""Let the ``python -m qfrac.cli`` subprocesses of the CLI tests import the
package from this checkout's ``src/``, as pytest's own ``pythonpath`` setting
does for the test process, from whatever directory pytest runs in, and fail
on a numpy ``RuntimeWarning`` as ``filterwarnings`` makes the test process do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning")))
