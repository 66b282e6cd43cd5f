"""Print one digest per workload of everything its operations output, for one seed.

Usage, from the root of a source checkout:

    python3 bench/digest.py [--seed N] [--workload NAME ...]

The digest is informational: it changes whenever any output changes (a
verdict, a witness, a report field, a decomposition), so two commits can
be compared at a glance.  It takes no part in the benchmark's checks.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    run.import_package(os.getcwd())
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](args.seed)
        digest = hashlib.sha256()
        for op in wl.operations:
            digest.update(repr(op()).encode() + b"\n")
        print(f"{name} seed {args.seed}: {len(wl.operations)} outputs sha256 {digest.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
