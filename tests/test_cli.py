import json
import re

import pytest

from rodhom import cli, fem


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


def test_homogenize(tmp_path, small_cfg):
    out = tmp_path / "h"
    assert cli.main(["homogenize", "--config", small_cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "homogenized.json").read_text())
    assert len(obj["A_rod"]) == 4
    assert obj["eta"] > 0
    rep = _report(out)
    assert rep["all_pass"]
    assert len(rep["mesh_hash"]) == 16 and len(rep["material_hash"]) == 16
    assert "tolerances" in rep


def test_spectrum(tmp_path, small_cfg):
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--config", small_cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("chi,lambda1")
    for name in ("bend_quotient", "stretch_quotient"):
        col = header.index(name)
        assert all(float(line.split(",")[col]) > 0 for line in lines[1:])


def test_fiber_rates(tmp_path, small_cfg):
    out = tmp_path / "f"
    assert cli.main(["fiber-rates", "--config", small_cfg, "--out", str(out)]) == 0
    rep = _report(out)
    assert all(s["passed"] for s in rep["slopes"])


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
    ("homogenize", {"geometry": {"n_y": "8"}}, "geometry.n_y"),
    ("resolvent-rates", {"seed": -1}, "seed"),
    ("resolvent-rates", {"slope_margin": -0.5}, "slope_margin"),
    ("resolvent-rates", {"n_loads": 2.5}, "n_loads"),
    ("homogenize", {"geometry": {"n_y": 8.7}}, "geometry.n_y"),
    ("homogenize", {"geometry": {"cross_section": {"rectangle": {"nx": 2.5}}}},
     "geometry.cross_section.rectangle.nx"),
], ids=["regime", "n_grid", "chi_grid", "n_y", "seed", "slope_margin", "n_loads",
        "n_y_fraction", "nx_fraction"])
def test_config_values_checked_before_assembly(tmp_path, monkeypatch, command, cfg, key):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the config check")

    monkeypatch.setattr(fem, "assemble", no_assembly)
    with pytest.raises(ValueError, match="config key %s must be" % key):
        cli.main([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])


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
def test_material_layers_checked_before_assembly(tmp_path, monkeypatch, layer, key):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the config check")

    monkeypatch.setattr(fem, "assemble", no_assembly)
    cfg = _write(tmp_path, {"material": {"layers": [layer]}})
    with pytest.raises(ValueError, match=re.escape(key)):
        cli.load_config(cfg)
    with pytest.raises(ValueError, match=re.escape(key)):
        cli.main(["homogenize", "--config", cfg, "--out", str(tmp_path / "o")])
