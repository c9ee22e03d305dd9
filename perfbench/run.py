"""Run one rodhom benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload line-rates --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

With `--trace 0` a run repeats whole rounds: one, then more as long as the
next one, taken to last as long as the last one, still ends within
`--seconds`. It reports the end-to-end metrics, medians over the run. A
round sets the cell up, runs the workload body on that set-up, checks the
outputs and sets the cell up again: `setup_repeats` set-ups in all, half
before the body and half after the checks. Every check is one attempted
operation. With `--trace 1` a run is one untraced and one
traced round; it reports the per-layer metrics of the traced round and the
tracing overhead (traced minus untraced body time). Spans are written to
`.perfbench/<workload>-seed<n>.spans.json.gz` under the checkout root.

The package is imported from `src/` of the checkout this file sits in; the
run fails at once if it is not there.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("line-rates", "line-leading", "cell-refined")

# per-layer metric -> (how, span names); "total" sums whole spans, "self"
# subtracts the time their direct child spans cover, "count" counts calls
_GAUSS = ["fem.AssembledForms." + m for m in (
    "strain", "xstrain", "values", "gradients", "stress", "dual_S", "dual_X",
    "integrate")]
_NORMS = ["fem.AssembledForms.norm_sq_l2", "fem.AssembledForms.norm_sq_h1"]
_GELFAND = ["transform.gelfand", "transform.gelfand_inverse"]
LAYER_METRICS = {
    "fem.assemble_s": ("total", ["fem.assemble"]),
    "fem.factor_s": ("total", ["fem.splu"]),
    "fem.factor_count": ("count", ["fem.splu"]),
    "fem.lu_solve_s": ("total", ["fem.lu_solve"]),
    "fem.lu_solve_count": ("count", ["fem.lu_solve"]),
    "fem.eigs_s": ("self", ["fem.smallest_eigs"]),
    "fem.eigs_count": ("count", ["fem.smallest_eigs"]),
    "fem.norm_s": ("self", _NORMS),
    "fem.norm_count": ("count", _NORMS),
    "fem.gauss_algebra_s": ("total", _GAUSS),
    "fem.gauss_algebra_count": ("count", _GAUSS),
    "homogenize.cell_basis_s": ("total", ["homogenize.cell_basis"]),
    "homogenize.rod_tensor_s": ("total", ["homogenize.rod_tensor"]),
    "homogenize.rod_tensor_count": ("count", ["homogenize.rod_tensor"]),
    "fiber.chain_s": ("total", ["fiber.build_chain"]),
    "fiber.chain_count": ("count", ["fiber.build_chain"]),
    "fiber.spectrum_s": ("total", ["fiber.spectrum_scaling"]),
    "transform.gelfand_s": ("total", _GELFAND),
    "transform.gelfand_count": ("count", _GELFAND),
    "transform.smoothing_s": ("total", ["transform.xi_smoothing"]),
    "pipeline.line_resolvent_s": ("self", ["pipeline.LineResolvent.apply"]),
    "pipeline.line_resolvent_count": ("count", ["pipeline.LineResolvent.apply"]),
    "pipeline.limit_resolvent_s": ("self", ["pipeline.limit_resolvent"]),
    "pipeline.limit_resolvent_count": ("count", ["pipeline.limit_resolvent"]),
    "pipeline.corrector_fields_s": ("self", ["pipeline.corrector_fields"]),
    "pipeline.error_norm_s": ("self", ["pipeline.line_error_norm"]),
    "pipeline.error_norm_count": ("count", ["pipeline.line_error_norm"]),
    "pipeline.make_loads_s": ("self", ["pipeline.make_loads"]),
    "geometry.cross_mass_s": ("total", ["geometry.cross_mass"]),
    "geometry.cross_mass_count": ("count", ["geometry.cross_mass"]),
}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_reuse") else "count"


def pin_blas_threads():
    """One BLAS thread: the dense blocks here are small, so a second thread
    costs more than it gains, and spinning BLAS threads collapse under any
    other load on the cores (see README)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def layer_metrics(tracer):
    summary = tracer.summary()
    out = {}
    for name, (how, spans) in LAYER_METRICS.items():
        rows = [summary[s] for s in spans if s in summary]
        key = {"total": "total_s", "self": "self_s", "count": "count"}[how]
        out[name] = sum(r[key] for r in rows)
    nnz = [n for n, _ in tracer.factors]
    out["fem.factor_nnz"] = sum(nnz)
    out["fem.factor_reuse"] = len({d for _, d in tracer.factors}) / max(len(nnz), 1)
    return out


def _timed_setup(cell):
    from workloads import setup
    # a dropped set-up stays alive in a reference cycle (forms and its
    # saddle solver) until the cyclic collector runs; free it here, outside
    # the timed region, so no set-up pays for another
    gc.collect()
    t0 = time.perf_counter()
    forms = setup(cell)
    return forms, time.perf_counter() - t0


def run_round(wl, seed, tracer=None):
    """Half the set-ups, the body on the last of them, the checks, then the
    other half of the set-ups. Timing set-up at both ends of the round
    samples the machine's speed a round apart rather than in one burst."""
    from workloads import Capture, Checks
    before = (wl.setup_repeats + 1) // 2
    setups = []
    with Capture() as cap:
        for i in range(before):
            forms = None
            if tracer is not None and i == before - 1:
                tracer.install()
            forms, t = _timed_setup(wl.cell)
            setups.append(t)
        try:
            t0 = time.perf_counter()
            out = wl.body(forms, seed)
            run_s = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
    checks = Checks()
    wl.check(checks, forms, out, cap, seed)
    forms = out = None
    for _ in range(wl.setup_repeats - before):
        setups.append(_timed_setup(wl.cell)[1])
    return setups, run_s, checks


def measure(workload, seed, seconds, trace):
    import rodhom
    from spans import Tracer
    from workloads import KNOWN_FAULTS, LOAD_SEEDS, WORKLOADS

    wl = WORKLOADS[workload]
    load_seed = seed % LOAD_SEEDS
    if trace:
        # one untraced and one traced round; the difference of their bodies
        # is the tracing overhead
        _, r, checks = run_round(wl, load_seed)
        results = checks.results
        tracer = Tracer(rodhom)
        _, r_traced, checks = run_round(wl, load_seed, tracer)
        results += checks.results
    else:
        # one round, then more while the next one, judged by the length of
        # the last, still ends within `seconds`
        start = time.perf_counter()
        setups, run_s, results = [], [], []
        while True:
            round_start = time.perf_counter()
            s, r, checks = run_round(wl, load_seed)
            setups += s
            run_s.append(r)
            results += checks.results
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break

    failed = [(name, detail) for name, ok, detail in results if not ok]
    for name, detail in failed:
        print("FAILED %s: %s%s" % (name, detail, "  [known fault: %s]" % KNOWN_FAULTS[name]
                                    if name in KNOWN_FAULTS else ""))
    if trace:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".perfbench", "%s-seed%d.spans.json.gz"
                                  % (workload, seed)))
        values = layer_metrics(tracer)
        values["trace.overhead_s"] = r_traced - r
    else:
        # a reference figure, not a gated metric: it does not repeat within
        # a tenth from run to run (see README)
        print("peak resident memory %.1f MB"
              % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(run_s)}
    return {"correct": all(name in KNOWN_FAULTS for name, _ in failed),
            "attempted": len(results),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}}


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit code %d\n%s" % (name, proc.returncode, proc.stderr), file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        print("%s: attempted %d, failed %d, correct %s" % (
            name, res["attempted"], res["failed"], res["correct"]))
        for line in lines[:-1]:
            print("  " + line)
        for key, m in res["metrics"].items():
            print("  %-32s %14.6g %s" % (key, m["value"], m["unit"]))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rodhom", "__init__.py")):
        print("no rodhom package under %s" % SRC, file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
