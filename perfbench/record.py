"""Record the reference outputs the benchmark checks every run against.

Run from the repository root, on the commit whose outputs are the
reference::

    python3 perfbench/record.py                 # every workload
    python3 perfbench/record.py route_cold      # one workload

For each workload and each input variant it runs the set-up and one body
exactly as ``run.py`` does and writes ``perfbench/refs/<workload>.json``:
``{"<variant>/<operation>": output}``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(names) -> int:
    (HERE / "refs").mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        refs = {}
        for variant in range(workload.pool):
            ctx = workload.setup([variant])
            start = time.perf_counter()
            ops = workload.body(ctx, None).ops
            seconds = time.perf_counter() - start
            refs.update(ops)
            print(f"{name}: variant {variant}: {len(ops)} outputs in {seconds:.3f} s")
        path = HERE / "refs" / f"{name}.json"
        path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
