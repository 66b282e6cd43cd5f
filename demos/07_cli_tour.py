"""The same machinery over files: a short command-line session.

Builds JSON inputs in a temporary directory and drives the `riskprop`
entry point in-process.  Every command is reproducible: rationals are
exact strings and searches are seeded.
"""

import json
import tempfile
from pathlib import Path

from riskprop.cli import main


def write(name, obj):
    path = tmp / name
    path.write_text(json.dumps(obj))
    return str(path)


with tempfile.TemporaryDirectory(prefix="riskprop-demo-") as tmpdir:
    tmp = Path(tmpdir)
    rain = write("rain.json", {"n": 3, "values": ["1", "0", "0"]})
    drought = write("drought.json", {"n": 3, "values": ["0", "1", "0"]})
    grapes = write("grapes.json", {"n": 3, "values": ["0", "1", "1"]})
    flat = write("flat.json", {"n": 2, "values": ["1", "1"]})
    spread = write("spread.json", {"n": 2, "values": ["0", "2"]})
    model = write(
        "dominated.json",
        {
            "type": "dual",
            "name": "dual-dominated",
            "fn": {"breakpoints": [["0", "0"], ["1/3", "1/4"], ["2/3", "13/20"], ["1", "1"]]},
        },
    )

    commands = [
        ["order", flat, spread],
        ["classify", rain, grapes],
        ["hedge", rain, drought, grapes],
        ["decompose", "chain", flat, spread],
        ["preference", model, "--ce", spread],
        ["certify", "--property", "pr", "--model", model,
         "--trials", "60", "--max-n", "4", "--exhaustive-n", "3"],
    ]

    for argv in commands:
        print(f"$ riskprop {' '.join(argv)}")
        code = main(argv)
        print(f"(exit {code})")
        print()
