"""The three demos run cleanly and print exactly their recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; the output does not depend on PYTHONHASHSEED
DEMOS = {
    "01_superalgebra_basics.py":
        "149b88810589271196b11232c6e47c65e61d9de9341eed0d1895de08ae0f8abc",
    "02_normal_forms_and_reconstruction.py":
        "35fcfa9e27d6419aa90ce57356b57711a9fbaa2985c2e07e5fb1aa98e6fd9bff",
    "03_weight_modules_and_classification.py":
        "bb065a4f1bc64cb0c543a9e615c3a0d0bb9c62a92338ac75d9ff755196f14cc6",
}


@pytest.mark.parametrize("name,digest", sorted(DEMOS.items()))
def test_demo_output(name, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
