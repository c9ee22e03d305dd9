"""Regenerate the per-eps error tables the line workloads compare against.

    python3 perfbench/make_reference.py line-rates line-leading

Runs the body of each named workload on the default cell for every load
seed and writes `perfbench/reference/<workload>.json`, keyed by seed and
row (flags, regime, component, order). A change meant to be a pure speed-up
must reproduce these errors to 1e-10 relative; regenerate the tables only
for a change that is meant to alter them, and say so.
"""

import json
import os
import sys

from run import HERE, SRC, pin_blas_threads


def main(argv):
    pin_blas_threads()
    sys.path[:0] = [SRC, HERE]
    from workloads import LOAD_SEEDS, WORKLOADS, reference_path, reference_rows, setup

    for name in argv or ("line-rates", "line-leading"):
        wl = WORKLOADS[name]
        table = {}
        for seed in range(LOAD_SEEDS):
            out = wl.body(setup(wl.cell), seed)
            table[str(seed)] = reference_rows(out["rows"] + out.get("ablation", []))
            print("%s seed %d: %d rows" % (name, seed, len(table[str(seed)])), flush=True)
        os.makedirs(os.path.dirname(reference_path(name)), exist_ok=True)
        with open(reference_path(name), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
