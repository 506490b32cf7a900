"""Cold-start probe: what every ``qphase run`` pays before it solves anything.

Usage: python3 probe.py MODULE[,MODULE...] [SCENARIO.yaml ...]

Imports ``qphase.cli`` and the named engine modules, parses each scenario
file the way ``qphase run`` does, and prints the monotonic clock, so the
caller can time the process from its spawn to this point.
"""

import sys
import time
from pathlib import Path


def main(argv):
    # __import__, unlike importlib.import_module, is seen by -X importtime
    __import__("qphase.cli")
    cli = sys.modules["qphase.cli"]
    for module in filter(None, argv[0].split(",")):
        __import__(module)
    for path in argv[1:]:
        cli.parse_scenario(Path(path).read_text())
    print(time.monotonic())


if __name__ == "__main__":
    main(sys.argv[1:])
