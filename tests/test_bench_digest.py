"""The benchmark's output digests at seeds 0 and 1 match the recorded ones.

``bench/digest.py`` hashes every output of the four workloads (verdicts,
witnesses, report fields, decompositions); a change to any result shows
here.  It runs from the root of the checkout, as documented in the script.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

DIGESTS = {
    0: {
        "compare_eu": "93b32b8fda60b989",
        "certify_dual": "cc6b64b5d7e2f18f",
        "refute": "88f701836813d98b",
        "decide_batch": "283d78c5bc847ddc",
    },
    1: {
        "compare_eu": "2dbc060c3763049e",
        "certify_dual": "b46e26bad6d9cbd3",
        "refute": "1bbbadcfed23758a",
        "decide_batch": "aaa8d711a02187e1",
    },
}


def _digests(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "digest.py"), "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    return {line.split()[0]: line.split()[-1] for line in out.splitlines()}


def test_seed0_digests_unchanged():
    assert _digests(0) == DIGESTS[0]


def test_seed1_digests_unchanged():
    assert _digests(1) == DIGESTS[1]
