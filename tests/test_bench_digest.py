"""The benchmark's output digests at seed 0 match the recorded ones.

``bench/digest.py`` hashes every output of the four workloads (verdicts,
witnesses, report fields, decompositions); a change to any result shows
here.  It runs from the root of the checkout, as documented in the script.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

DIGESTS = {
    "compare_eu": "93b32b8fda60b989",
    "certify_dual": "cc6b64b5d7e2f18f",
    "refute": "88f701836813d98b",
    "decide_batch": "283d78c5bc847ddc",
}


def test_seed0_digests_unchanged():
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "digest.py"), "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    got = {line.split()[0]: line.split()[-1] for line in out.splitlines()}
    assert got == DIGESTS
