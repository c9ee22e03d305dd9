import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy

import rodhom
from rodhom import cli, fem

from support_config import INTERTWINED, intertwined_material


@pytest.fixture()
def small_cfg(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "n_grid": [8, 12, 16, 24],
        "regimes": ["stretch"],
        "n_loads": 1,
        "chi_grid": [0.4, 0.283, 0.2, 0.141, 0.1],
    }))
    return str(p)


_RATES_HEADER = "regime,component,order,flags,eps,err,slope_fit,slope_theory,pass"


def _report(outdir):
    return json.loads((outdir / "report.json").read_text())


def test_homogenize(tmp_path, small_cfg, monkeypatch):
    # homogenize factorises the quotient LU on the class blocks of K_ss, but
    # no resolvent, so it builds no block of K_sx, K_xx or M
    built = []
    block_diagonal = fem.ParityBasis.block_diagonal

    def counted(self, A, name):
        built.append(name)
        return block_diagonal(self, A, name)

    monkeypatch.setattr(fem.ParityBasis, "block_diagonal", counted)
    monkeypatch.setattr(fem, "ResolventSolver", None)
    out = tmp_path / "h"
    assert cli.main(["homogenize", "--config", small_cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "homogenized.json").read_text())
    assert len(obj["A_rod"]) == 4
    assert obj["eta"] > 0
    rep = _report(out)
    assert rep["all_pass"]
    assert len(rep["mesh_hash"]) == 16 and len(rep["material_hash"]) == 16
    assert "tolerances" in rep and "resolvent_blocks" not in rep
    assert built == ["K_ss"]
    assert rep["environment"] == {"rodhom": rodhom.__version__, "numpy": np.__version__,
                                  "scipy": scipy.__version__,
                                  "python": platform.python_version(),
                                  "blas_threads": {v: os.environ[v] for v in _BLAS_VARS}}


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(args, **env):
    """python -m rodhom.cli args in a new process, with the BLAS thread
    variables unset but for env."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, base.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rodhom.cli", *args], capture_output=True,
                          text=True, env={**base, **env}, timeout=300)


def test_cli_pins_blas_to_one_thread_unless_set(tmp_path):
    # the process runs with one BLAS thread per variable the caller left
    # unset, keeps the caller's count otherwise, and reports both
    cfg = _write(tmp_path, {"geometry": {"n_y": 2, "cross_section": {"rectangle": {
        "nx": 2, "ny": 2}}}})
    run = _run_cli(["homogenize", "--config", cfg, "--out", str(tmp_path / "h")],
                   OPENBLAS_NUM_THREADS="2")
    assert run.returncode == 0, run.stderr
    assert _report(tmp_path / "h")["environment"]["blas_threads"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}


def test_config_rejection_is_one_error_line(tmp_path):
    # a config the command cannot run exits with argparse's status 2 and one
    # "rodhom: error: config key ..." line, not a traceback, before the
    # output directory is made
    cfg = _write(tmp_path, {"material": intertwined_material(), "regimes": ["rod"]})
    out = tmp_path / "o"
    run = _run_cli(["validate", "--config", cfg, "--out", str(out)])
    assert run.returncode == 2
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("rodhom: error: config key material must be ")
    assert not out.exists()


def _rejected(capsys, argv, pattern):
    """cli.main exits with status 2 and one stderr line, "rodhom: error: "
    and a message that pattern matches."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("rodhom: error: ")
    assert re.search(pattern, err)


def test_spectrum(tmp_path, small_cfg):
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--config", small_cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("chi,lambda1")
    for name in ("bend_quotient", "stretch_quotient"):
        col = header.index(name)
        assert all(float(line.split(",")[col]) > 0 for line in lines[1:])
    # the default 4x4x8 cell splits into the four mirror classes
    assert _report(out)["resolvent_blocks"] == [152, 152, 168, 128]


def test_fiber_rates(tmp_path, small_cfg):
    out = tmp_path / "f"
    assert cli.main(["fiber-rates", "--config", small_cfg, "--out", str(out)]) == 0
    rep = _report(out)
    assert all(s["passed"] for s in rep["slopes"])
    assert rep["resolvent_blocks"] == [152, 152, 168, 128]


def test_fiber_rates_intertwined(tmp_path):
    # without rod material symmetry the run takes the regimes without a
    # parity split; the config is the committed one CI runs
    out = tmp_path / "f"
    assert cli.main(["fiber-rates", "--config", INTERTWINED, "--out", str(out)]) == 0
    slopes = _report(out)["slopes"]
    assert [s["regime"] for s in slopes] == ["general_chi2"] * 2 + ["general_chi4"] * 4
    assert all(s["passed"] for s in slopes)
    assert _report(out)["resolvent_blocks"] is None


def test_resolvent_rates(tmp_path, small_cfg):
    out = tmp_path / "r"
    assert cli.main(["resolvent-rates", "--config", small_cfg,
                     "--out", str(out)]) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0] == _RATES_HEADER
    assert len(lines) == 1 + 4  # one row per eps
    rep = _report(out)
    assert rep["all_pass"] and rep["config"]["regimes"] == ["stretch"]


@pytest.mark.parametrize("command, order", [("h1-rates", 1), ("higher-order-rates", 2)])
def test_corrector_rates(tmp_path, small_cfg, command, order):
    out = tmp_path / "r"
    assert cli.main([command, "--config", small_cfg, "--out", str(out)]) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0] == _RATES_HEADER
    assert len(lines) == 1 + 4
    assert all(line.split(",")[2] == str(order) for line in lines[1:])
    assert _report(out)["all_pass"]


def test_validate(tmp_path, small_cfg):
    out = tmp_path / "v"
    assert cli.main(["validate", "--config", small_cfg, "--out", str(out)]) == 0
    assert (out / "rates.csv").read_text().splitlines()[0] == _RATES_HEADER
    rep = _report(out)
    assert rep["all_pass"]
    for name in ("fiber_line_consistency", "self_adjointness"):
        assert rep["checks"][name] < cli.TOLERANCES[name]
    for ablation in ("xi", "momentum_zero", "s_inf"):
        assert any(r["flags"].startswith("ablation=%s," % ablation) for r in rep["rows"])


def test_default_config_used_when_missing(tmp_path):
    cfg = cli.load_config(None)
    assert cfg["length"] == 6.0
    assert cfg["regimes"] == ["stretch", "bend", "rod"]


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--out", "/tmp/x"])


def _write(tmp_path, obj):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(obj))
    return str(p)


def test_config_merges_nested_keys(tmp_path):
    cfg = cli.load_config(_write(tmp_path, {
        "geometry": {"n_y": 4, "cross_section": {"rectangle": {"nx": 2}}}}))
    assert cfg["geometry"]["n_y"] == 4
    assert cfg["geometry"]["cross_section"]["rectangle"] == {
        "aspect": 1.0, "nx": 2, "ny": 4}
    assert cli.build_problem(cfg).mesh.n_y == 4


def test_report_tolerances_leave_slope_margin_to_config(tmp_path):
    # the slope margin a run uses is reported in its config block; the fixed
    # tolerances must not claim another value
    cfg = cli.load_config(_write(tmp_path, {
        "slope_margin": 0.3,
        "geometry": {"n_y": 2, "cross_section": {"rectangle": {"nx": 2, "ny": 2}}}}))
    tolerances = cli.provenance(cfg, cli.build_problem(cfg))["tolerances"]
    assert "slope_margin" not in tolerances
    assert tolerances["kernel_residual"] == fem.KERNEL_TOLERANCE


def test_config_replaces_material_layers_whole(tmp_path):
    layer = {"from": -0.5, "to": 0.5, "model": {"isotropic": {"lambda": 1.0, "mu": 1.0}}}
    cfg = cli.load_config(_write(tmp_path, {"material": {"layers": [layer]}}))
    assert cfg["material"]["layers"] == [layer]


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="n_grids"):
        cli.load_config(_write(tmp_path, {"n_grids": [8, 12]}))
    with pytest.raises(ValueError, match="geometry.cross_section.rectangle.nz"):
        cli.load_config(_write(tmp_path, {
            "geometry": {"cross_section": {"rectangle": {"nz": 2}}}}))
    with pytest.raises(ValueError, match="geometry"):
        cli.load_config(_write(tmp_path, {"geometry": 4}))


@pytest.mark.parametrize("command, cfg, key", [
    ("resolvent-rates", {"regimes": ["rods"]}, "regimes"),
    ("fiber-rates", {"n_grid": [8, 12]}, "n_grid"),
    ("fiber-rates", {"chi_grid": [0.4, 0.0, 0.2, 0.1]}, "chi_grid"),
    ("fiber-rates", {"chi_grid": [0.1, 0.1]}, "chi_grid"),
    ("homogenize", {"geometry": {"n_y": "8"}}, "geometry.n_y"),
    ("resolvent-rates", {"seed": -1}, "seed"),
    ("resolvent-rates", {"slope_margin": -0.5}, "slope_margin"),
    ("resolvent-rates", {"n_loads": 2.5}, "n_loads"),
    ("homogenize", {"geometry": {"n_y": 8.7}}, "geometry.n_y"),
    ("homogenize", {"geometry": {"cross_section": {"rectangle": {"nx": 2.5}}}},
     "geometry.cross_section.rectangle.nx"),
], ids=["regime", "n_grid", "chi_grid", "chi_grid_repeated", "n_y", "seed", "slope_margin",
        "n_loads", "n_y_fraction", "nx_fraction"])
def test_config_values_checked_before_assembly(tmp_path, monkeypatch, capsys, command, cfg,
                                                key):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the config check")

    monkeypatch.setattr(fem, "assemble", no_assembly)
    _rejected(capsys, [command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")],
              "config key %s must be" % key)


@pytest.mark.parametrize("command", ["resolvent-rates", "h1-rates", "higher-order-rates",
                                     "validate"])
def test_parity_regimes_need_rod_symmetry_before_assembly(tmp_path, monkeypatch, capsys,
                                                          command):
    # the default regimes include stretch and bend, which the intertwined
    # material does not split into; the commands that run them reject the
    # config, and those that do not (fiber-rates) read it
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the config check")

    monkeypatch.setattr(fem, "assemble", no_assembly)
    cfg = INTERTWINED
    want = r"config key regimes must be .* \(stretch, bend\)"
    with pytest.raises(ValueError, match=want):
        cli.load_config(cfg, command)
    _rejected(capsys, [command, "--config", cfg, "--out", str(tmp_path / "o")], want)
    assert cli.load_config(cfg, "fiber-rates")["material"] == intertwined_material()
    cfg = _write(tmp_path, {"material": intertwined_material(), "regimes": ["rod"]})
    if command == "validate":
        # its ablations and limit/pullback check run bend and stretch anyway
        with pytest.raises(ValueError, match=r"config key material must be .* validate"):
            cli.load_config(cfg, command)
    else:
        assert cli.load_config(cfg, command)["regimes"] == ["rod"]


_ISO = {"isotropic": {"lambda": 1.0, "mu": 1.0}}


@pytest.mark.parametrize("layer, key", [
    ({"to": 0.5, "model": _ISO}, "material.layers[0].from"),
    ({"from": -0.5, "model": _ISO}, "material.layers[0].to"),
    ({"from": -0.5, "to": 0.5}, "material.layers[0].model"),
    ({"from": -0.5, "to": 0.5, "model": {"isotropic": {"lambda": "1", "mu": 1.0}}},
     "material.layers[0].model.isotropic.lambda"),
    ({"from": -0.5, "to": 0.5, "model": {"isotropic": {"lambda": 1.0, "mu": "1"}}},
     "material.layers[0].model.isotropic.mu"),
    ({"from": -0.5, "to": 0.5, "model": {"voigt": [[1.0] * 5] * 5}},
     "material.layers[0].model.voigt"),
], ids=["from", "to", "model", "lambda", "mu", "voigt"])
def test_material_layers_checked_before_assembly(tmp_path, monkeypatch, capsys, layer, key):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the config check")

    monkeypatch.setattr(fem, "assemble", no_assembly)
    cfg = _write(tmp_path, {"material": {"layers": [layer]}})
    with pytest.raises(ValueError, match=re.escape(key)):
        cli.load_config(cfg)
    _rejected(capsys, ["homogenize", "--config", cfg, "--out", str(tmp_path / "o")],
              re.escape(key))
