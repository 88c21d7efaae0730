"""Run the shimura_pq CLI with the per-layer wrappers installed.

    python perfbench/traced_cli.py STATS_FILE check --p 13 --q 47 ...

Behaves like ``python -m shimura_pq.cli ...`` (same output, same exit code)
and writes the per-layer stats of the run as JSON to STATS_FILE.
"""

import json
import sys

from layers import Tracer


def main():
    stats_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from shimura_pq import cli

    try:
        code = cli.main(argv)
    finally:
        with open(stats_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
