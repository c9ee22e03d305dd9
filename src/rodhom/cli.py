"""Command line front end: effective tensors, spectral sweeps, and the rate
studies, driven by a JSON config and writing CSV/JSON reports."""

import argparse
import contextlib
import hashlib
import json
import os
import sys

import numpy as np

from . import fem, fiber, pipeline as pl
from .checks import POSITIVE, is_list_of, require
from .geometry import ProductMesh, build_rectangle, is_centrally_symmetric
from .homogenize import rod_tensor
from .material import profile_from_json

DEFAULT_CONFIG = {
    "material": {"layers": [
        {"from": -0.5, "to": 0.0, "model": {"isotropic": {"lambda": 1.0, "mu": 1.0}}},
        {"from": 0.0, "to": 0.5, "model": {"isotropic": {"lambda": 5.0, "mu": 5.0}}},
    ]},
    "geometry": {"cross_section": {"rectangle": {"aspect": 1.0, "nx": 4, "ny": 4}},
                 "n_y": 8},
    "gamma": 0.0,
    "delta": 0.0,
    "length": 6.0,
    "n_grid": [8, 12, 16, 24, 32],
    "regimes": ["stretch", "bend", "rod"],
    "n_loads": 5,
    "seed": 0,
    "slope_margin": 0.1,
    "chi_grid": list(pl.CHI_SWEEP),
}

TOLERANCES = {
    "fiber_line_consistency": 1e-10,
    "self_adjointness": 1e-10,
    "kernel_residual": fem.KERNEL_TOLERANCE,
}


def _merge(base, user, where=""):
    """Overlay user onto base in place: objects merge key by key, any other
    value (the material layer list included) replaces the default whole."""
    for key, val in user.items():
        name = where + key
        if key not in base:
            raise ValueError("unknown config key: %s" % name)
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ValueError("config key %s must be an object" % name)
            _merge(base[key], val, name + ".")
        else:
            base[key] = val


# chi_grid is the one value no library constructor receives; the others are
# checked by the objects load_config builds from them
_VALUES = {
    "chi_grid": ("a list of at least 2 positive numbers",
                 lambda v: is_list_of(v, 2, POSITIVE[1])),
}


@contextlib.contextmanager
def _config_key(where):
    """Reword a constructor's "<field> must be ..." as config key where + field."""
    try:
        yield
    except ValueError as err:
        raise ValueError("config key %s%s" % (where, err)) from None


def _mesh(cfg):
    geo = cfg["geometry"]
    rect = geo["cross_section"]["rectangle"]
    with _config_key("geometry.cross_section.rectangle."):
        cross = build_rectangle(rect["aspect"], rect["nx"], rect["ny"])
    with _config_key("geometry."):
        return ProductMesh(cross, geo["n_y"])


def _experiment_config(cfg, orders):
    with _config_key(""):
        return pl.ExperimentConfig(
            gamma=cfg["gamma"], delta=cfg["delta"], length=cfg["length"],
            n_grid=cfg["n_grid"], regimes=cfg["regimes"], orders=orders,
            n_loads=cfg["n_loads"], seed=cfg["seed"], slope_margin=cfg["slope_margin"])


def load_config(path):
    """DEFAULT_CONFIG deep-merged with the JSON file at path. A key the
    defaults do not have, or a value of the wrong type or out of range,
    raises ValueError naming its dotted key, before anything is assembled:
    the ExperimentConfig, the meshes and the material profile are built
    here once to check their values."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        with open(path) as fh:
            _merge(cfg, json.load(fh))
    for key, (want, ok) in _VALUES.items():
        require("config key " + key, cfg[key], want, ok)
    _experiment_config(cfg, (0,))
    _mesh(cfg)
    profile_from_json(cfg["material"])
    return cfg


def build_problem(cfg):
    return fem.assemble(profile_from_json(cfg["material"]), _mesh(cfg))


def _hash_array(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def provenance(cfg, forms):
    mesh = forms.mesh
    return {
        "mesh_hash": _hash_array(mesh.cross.nodes, mesh.cross.elements,
                                 np.array([mesh.n_y])),
        "material_hash": hashlib.sha256(
            json.dumps(cfg["material"], sort_keys=True).encode()).hexdigest()[:16],
        "seed": cfg["seed"],
        "tolerances": TOLERANCES,
    }


def write_report(outdir, command, cfg, forms, payload, all_pass):
    report = {"command": command, "config": cfg, "all_pass": bool(all_pass)}
    report.update(provenance(cfg, forms))
    report.update(payload)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)


def cmd_homogenize(cfg, forms, outdir):
    rt = rod_tensor(forms)
    md = forms.moments
    out = {"A_rod": rt.A_rod.tolist(), "A_bend": rt.A_bend.tolist(),
           "A_stretch": rt.A_stretch.tolist(), "eta": rt.eta,
           "c1": md.c1, "c2": md.c2}
    with open(os.path.join(outdir, "homogenized.json"), "w") as fh:
        json.dump(out, fh, indent=2)
    ok = rt.eta > 0
    write_report(outdir, "homogenize", cfg, forms, {"eta": rt.eta}, ok)
    return ok


def cmd_spectrum(cfg, forms, outdir):
    data = fiber.spectrum_scaling(forms, cfg["chi_grid"], k=5)
    rows = []
    for r in data:
        row = {"chi": r["chi"]}
        for i, v in enumerate(r["eigs"]):
            row["lambda%d" % (i + 1)] = v
        row["ratio_bend1"], row["ratio_bend2"] = r["ratio_bend"]
        row["ratio_stretch1"], row["ratio_stretch2"] = r["ratio_stretch"]
        rb = fiber.rayleigh_bounds(forms, r["chi"])
        row["bend_quotient"] = rb["bend_quotient"]
        row["stretch_quotient"] = rb["stretch_quotient"]
        rows.append(row)
    pl.write_csv(os.path.join(outdir, "spectrum.csv"), rows)

    def spread(vals):
        return float(np.max(vals) / np.min(vals))

    checks = {
        "bend_ratio_spread": max(spread([r["ratio_bend"][i] for r in data])
                                 for i in range(2)),
        "stretch_ratio_spread": max(spread([r["ratio_stretch"][i] for r in data])
                                    for i in range(2)),
        "lambda5_spread": spread([r["lambda5"] for r in data]),
    }
    ok = (checks["bend_ratio_spread"] < 1.2 and checks["stretch_ratio_spread"] < 1.2
          and checks["lambda5_spread"] < 2.0)
    write_report(outdir, "spectrum", cfg, forms, {"checks": checks}, ok)
    return ok


def _fiber_loads(cfg, forms):
    symmetric, pairing = is_centrally_symmetric(forms.mesh.cross)
    rng = np.random.default_rng(cfg["seed"])
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    fn = f / np.sqrt(forms.norm_sq_l2(f))
    loads = {"general_chi2": fn, "general_chi4": fn}
    if symmetric:
        for regime in ("stretch", "bend"):
            fr = fem.project_symmetry(f, regime, forms.mesh, pairing)
            loads[regime] = fr / np.sqrt(forms.norm_sq_l2(fr))
    return loads


def cmd_fiber_rates(cfg, forms, outdir):
    study = pl.fiber_rate_study(forms, _fiber_loads(cfg, forms), cfg["chi_grid"])
    rows = [dict(r) for r in study["rows"]]
    for s in study["slopes"]:
        rows.append({"regime": s["regime"], "chi": "slope",
                     "component": s["component"], "order": s["order"],
                     "err_l2": "", "err_h1": s["slope_fit"]})
    pl.write_csv(os.path.join(outdir, "fiber_rates.csv"), rows)
    ok = all(s["passed"] for s in study["slopes"])
    write_report(outdir, "fiber-rates", cfg, forms, {"slopes": study["slopes"]}, ok)
    return ok


def _run_rates(cfg, forms, outdir, command, orders):
    rep = pl.rate_experiment(_experiment_config(cfg, orders), forms)
    rep.write_csv(os.path.join(outdir, "rates.csv"))
    write_report(outdir, command, cfg, forms, {"rows": rep.rows}, rep.all_pass())
    return rep.all_pass()


def cmd_validate(cfg, forms, outdir):
    checks = {}
    eps = cfg["length"] / cfg["n_grid"][-1]
    f = pl.make_loads(forms.mesh.cross, forms.mesh.n_y, cfg["n_grid"][-1], eps,
                      "rod", n_loads=1, seed=cfg["seed"])[0]
    worst = 0.0
    for regime in ("rod", "stretch", "bend"):
        a = pl.limit_resolvent(forms, f, cfg["gamma"], regime)
        b = pl.fiber_pullback_resolvent(forms, f, cfg["gamma"], regime)
        worst = max(worst, float(np.max(np.abs(a.values - b.values))
                                 / np.max(np.abs(a.values))))
    checks["fiber_line_consistency"] = worst

    g = pl.make_loads(forms.mesh.cross, forms.mesh.n_y, cfg["n_grid"][-1], eps,
                      "rod", n_loads=2, seed=cfg["seed"] + 1)
    R = pl.LineResolvent(forms, eps, cfg["gamma"])
    lhs = pl.line_inner(forms, R.apply(g[0]), g[1])
    rhs = pl.line_inner(forms, g[0], R.apply(g[1]))
    checks["self_adjointness"] = abs(lhs - rhs) / abs(lhs)

    rep = pl.rate_experiment(_experiment_config(cfg, (0, 1, 2)), forms)
    abl = pl.ablation_experiment(_experiment_config(cfg, (0,)), forms)
    rep.rows.extend(abl.rows)
    rep.write_csv(os.path.join(outdir, "rates.csv"))
    ok = rep.all_pass() and all(v < TOLERANCES[k] for k, v in checks.items())
    write_report(outdir, "validate", cfg, forms,
                 {"checks": checks, "rows": rep.rows}, ok)
    return ok


COMMANDS = {
    "homogenize": cmd_homogenize,
    "spectrum": cmd_spectrum,
    "fiber-rates": cmd_fiber_rates,
    "resolvent-rates": lambda c, f, o: _run_rates(c, f, o, "resolvent-rates", (0,)),
    "h1-rates": lambda c, f, o: _run_rates(c, f, o, "h1-rates", (1,)),
    "higher-order-rates": lambda c, f, o: _run_rates(c, f, o, "higher-order-rates", (2,)),
    "validate": cmd_validate,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rodhom",
        description="effective rod tensors and resolvent rate studies for "
                    "periodically heterogeneous thin rods")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    forms = build_problem(cfg)
    ok = COMMANDS[args.command](cfg, forms, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
