"""The chi sweeps of the cell studies written out as plain loops, one chi
after another: oracles for fiber.spectrum_scaling and
pipeline.fiber_rate_study that read neither regime table.
Validation-only; not part of the library."""

from rodhom import fem, fiber, pipeline as pl


def spectrum_scaling_loop(forms, chi_grid, k=5):
    """The eigenvalues of spectrum_scaling, one eigensolve per chi in turn."""
    return [fem.smallest_eigs(forms, chi, k)[0] for chi in chi_grid]


def fiber_rate_study_loop(forms, loads, chi_grid=pl.CHI_SWEEP):
    """fiber_rate_study with each chi's chains, reference solves and error
    rows made in turn, the solves on the forms' resolvent LUs
    (forms.resolvent), in whichever basis the forms factorise them."""
    rows = {regime: [] for regime in loads}
    errs = {k: [] for k in pl.FIBER_THRESHOLDS}
    for chi in chi_grid:
        solvers = {}
        for regime, f in loads.items():
            split = regime in ("bend", "general_chi4")
            t = chi ** (-4 if split else -2)
            if t not in solvers:
                solvers[t] = forms.resolvent(chi, t)
            ch = fiber.build_chain(forms, chi, t, regime, f)
            ref = solvers[t].solve(fiber.apply_load_scaling(
                f, "s_abs_chi" if split else "none", chi))
            for row in fiber.error_report(forms, ch, ref):
                rows[regime].append({"regime": regime, **row})
                errs[(regime, row["component"], row["order"])].append(row["err_h1"])
    slopes = []
    for (regime, tag, order), seq in errs.items():
        if not seq:
            continue
        slope = fiber.fit_slope(chi_grid, seq)
        thr = pl.FIBER_THRESHOLDS[(regime, tag, order)]
        slopes.append({"regime": regime, "component": tag, "order": order,
                       "slope_fit": slope, "slope_threshold": thr,
                       "passed": bool(slope >= thr)})
    return {"rows": [r for regime in loads for r in rows[regime]],
            "slopes": slopes}
