"""Golden experiment: the frozen output of the tiny ``exp table1`` run.

The sha256 of its stdout (with the ``--out`` path replaced by ``<out>``),
its exit code and the sha256 of every file it writes under ``--out`` are
pinned in ``golden_exp.json``.  Moving the pipeline between modules must
leave all of them unchanged.

The bits depend on the numpy/BLAS build as well as on the code.  To write
the file afresh, run ``PYTHONPATH=src python tests/test_golden_exp.py``.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from ggsfc.cli import main
from test_cli import TINY_EXP

GOLDEN = Path(__file__).with_name("golden_exp.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(out: Path) -> dict:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(["exp", "table1", "--out", str(out), *TINY_EXP])
    return {
        "argv": ["exp", "table1", "--out", "<out>", *TINY_EXP],
        "exit_code": code,
        "stdout_sha256": _sha256(stdout.getvalue().replace(str(out), "<out>").encode()),
        "files": {
            p.relative_to(out).as_posix(): _sha256(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()
        },
    }


def test_tiny_exp_matches_the_golden_file(tmp_path):
    assert snapshot(tmp_path / "exp") == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(snapshot(Path(tmp) / "exp"), indent=1) + "\n")
