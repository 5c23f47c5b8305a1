"""Regenerate the detector checkpoints that the scan and attack workloads load.

Trains ns and sca with the package's own CLI on a 400-file synthetic corpus
(corpus seed 7, model seed 0, 10 epochs) and writes perfbench/models/ns.bin
and perfbench/models/sca.bin.  BLAS runs single-threaded so that the
summation order, and with it every weight, is the same on any machine.

Usage, from the root of the repository:

    python3 perfbench/make_models.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chunksmooth import cli  # noqa: E402

CORPUS_SEED = 7
MODEL_SEED = 0
N_FILES = 400
EPOCHS = 10


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"chunksmooth {' '.join(argv)} exited with {code}")
    return out.getvalue()


def main() -> None:
    models = HERE / "models"
    models.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        corpus_dir = str(Path(tmp) / "corpus")
        _run(["gen-corpus", "--out", corpus_dir, "--n-files", str(N_FILES), "--seed", str(CORPUS_SEED)])
        for kind in ("ns", "sca"):
            ckpt = str(Path(tmp) / f"{kind}.bin")
            t0 = time.perf_counter()
            print(_run([
                "train", "--corpus", corpus_dir, "--out", ckpt, "--detector", kind,
                "--max-epochs", str(EPOCHS), "--patience", str(EPOCHS - 1), "--seed", str(MODEL_SEED),
            ]).strip(), f"[{time.perf_counter() - t0:.1f} s]")
            report = json.loads(_run(["evaluate", "--model", ckpt, "--corpus", corpus_dir, "--split", "test"]))
            print(f"{kind}: test accuracy {report['accuracy']:.4f} on {report['n']} files")
            shutil.copyfile(ckpt, models / f"{kind}.bin")


if __name__ == "__main__":
    main()
