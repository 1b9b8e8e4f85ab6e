"""Run the ``recomb`` command line in this fresh interpreter with tracing on.

    python traced_cli.py SPANS_JSON <recomb arguments...>

Writes the import time, the request's layer metrics, the absent metrics and
the spans to SPANS_JSON, and exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer  # this directory is sys.path[0]


def main() -> int:
    start = time.perf_counter()
    import recomb.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    code = recomb.cli.main(sys.argv[2:])
    tracer.uninstall()
    Path(sys.argv[1]).write_text(json.dumps({
        "layers": tracer.layer_metrics({"cli.import_s": import_s}),
        "absent": tracer.absent,
        "spans": tracer.spans,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
