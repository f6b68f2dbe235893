"""Write expected.json: every case's normalised output on the current tree.

Usage, from the root of a checkout:  python3 perfbench/freeze.py

The frozen outputs are the benchmark's correctness oracle.  They were
taken from a commit whose test suite passed; regenerate them only when a
change is meant to alter an output, and say so.
"""

import json
import time

from run import HERE, RUN_LIMIT_S, child_env, run_child


def main() -> None:
    workloads = json.loads((HERE / "workloads.json").read_text())
    frozen = {}
    for name, workload in workloads.items():
        deadline = time.monotonic() + RUN_LIMIT_S
        report = run_child(["--workload", name, "--seed", "0"],
                           child_env(workload), deadline)
        frozen[name] = {case["id"]: report["outputs"][case["id"]]
                        for case in workload["cases"]}
    (HERE / "expected.json").write_text(json.dumps(frozen, indent=1) + "\n")


if __name__ == "__main__":
    main()
