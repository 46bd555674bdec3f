"""Worker process that runs jobs on the frozen seed-commit psinv.

    python3 perfbench/baseline_worker.py     (started by run.py)

Reads one JSON request per line on stdin and answers one JSON line on stdout:

    {"kind": "cli", "argv": [...]}    -> {"seconds": time of the job}
    {"setup": [workload, seed, smoke, directory, expected]}
                                      -> {"seconds": time of the set-up}

Jobs and set-up are timed exactly as run.py times them on the current
sources.  A request that raises, or exits the way argparse does on a flag the
seed commit lacks, is answered with {"seconds": ..., "error": "..."} and the
worker goes on with the next one.  The worker ends when stdin closes.
"""
import importlib
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "baseline"))

import run  # noqa: E402

PACKAGE = "psinv_seed"


def import_baseline():
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def main() -> int:
    cli = import_baseline()
    for line in sys.stdin:
        request = json.loads(line)
        answer = {}
        start = time.perf_counter()
        try:
            if "setup" in request:
                workload, seed, smoke, directory, expected = request["setup"]
                cli = import_baseline()
                run.prepare(workload, seed, smoke, directory, expected)
            else:
                run.execute(cli, request["kind"], request["argv"])
        except BaseException:  # noqa: B036 - SystemExit from argparse included
            answer["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        answer["seconds"] = time.perf_counter() - start
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
