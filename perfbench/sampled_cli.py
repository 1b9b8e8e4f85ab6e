"""Run the ``recomb`` command line in this fresh interpreter while sampling
its speed (see ``speed.py``).

    python sampled_cli.py SAMPLES_JSON <recomb arguments...>

Writes the speed samples to SAMPLES_JSON and exits with the command's exit
code.
"""

import json
import sys
from pathlib import Path

from speed import Sampler  # this directory is sys.path[0]


def main() -> int:
    sampler = Sampler()
    sampler.start()
    try:
        import recomb.cli

        code = recomb.cli.main(sys.argv[2:])
    finally:
        sampler.stop()
        Path(sys.argv[1]).write_text(json.dumps(sampler.samples))
    return code


if __name__ == "__main__":
    sys.exit(main())
