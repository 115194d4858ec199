import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from quantproc import cli
from quantproc.errors import ConfigError


def write_yaml(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload))
    return str(p)


def simulate_cfg(n_paths=4):
    return {
        "kind": "simulate",
        "seed": 42,
        "n_paths": n_paths,
        "driver": {"kind": "Brownian"},
        "grid": {"times": [0.5, 1.0, 2.0]},
    }


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_reports_every_violation():
    cfg = {
        "kind": "price",
        "seed": 1,
        "driver": {"kind": "Brownian"},
        "map": {"mode": "TrueLaw",
                "quantile": {"family": "TukeyGH", "a": 0, "b": 1, "g": 0.5, "h": -0.1}},
        "payoff": {"kind": "Layer", "a": 2.0, "b": 1.0},
    }
    diags = cli.validate_config(cfg)
    fields = {d.field for d in diags}
    assert "map" in fields and "payoff" in fields
    messages = " ".join(d.message for d in diags)
    assert "h >= 0" in messages


def test_validate_minimal_config_clean(tmp_path):
    diags = cli.validate_config(simulate_cfg())
    assert diags == []


def test_validate_unknown_kind():
    diags = cli.validate_config({"kind": "frobnicate"})
    assert len(diags) == 1 and diags[0].field == "kind"


def test_validate_grid_and_exporters():
    cfg = simulate_cfg()
    cfg["grid"] = {"times": [1.0, 0.5]}
    assert any(d.field == "grid" for d in cli.validate_config(cfg))
    tariff = {"kind": "tariff", "seed": 1,
              "exporters": [{"g": 0.0, "gamma": 2.0}, {"g": 0.5, "gamma": 0.5}]}
    fields = [d.field for d in cli.validate_config(tariff)]
    assert "exporters[0].gamma" in fields and "exporters[0].g" in fields


def price_cfg():
    return {
        "kind": "price",
        "seed": 3,
        "n_paths": 20_000,
        "driver": {"kind": "Brownian"},
        "map": {"mode": "FalseLaw",
                "dist": {"family": "Gaussian", "m": 0.0, "v": 1.0},
                "quantile": {"family": "TukeyG", "a": 0, "b": 1, "g": 0.5}},
        "payoff": {"kind": "Layer", "a": 1.0, "b": 2.0},
    }


@pytest.mark.parametrize("section", ["driver", "quantile", "dist", "payoff", "copula"])
def test_unknown_key_is_validation_failure(tmp_path, capsys, section):
    cfg = price_cfg()
    if section == "copula":
        cfg["copula"] = {"family": "Clayton", "theta": 2.0, "rho": 1}
    else:
        spec = cfg["map"][section] if section in ("quantile", "dist") else cfg[section]
        spec["hh"] = 0.1
    cfgfile = write_yaml(tmp_path, "stray.yaml", cfg)
    for command in ("validate", "price"):
        rc = cli.main([command, "--config", cfgfile, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"{section}." in captured.out + captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["driver", "grid", "map", "map1", "map2", "payoff", "copula"])
def test_non_mapping_section_is_validation_failure(tmp_path, capsys, section):
    cfg = price_cfg()
    cfg[section] = "Brownian"
    cfgfile = write_yaml(tmp_path, "scalar.yaml", cfg)
    for command in ("validate", "price"):
        rc = cli.main([command, "--config", cfgfile, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"{section}: must be a mapping" in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_unparseable_yaml_reports_location(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("kind: [unclosed\n  - seq\n")
    with pytest.raises(ConfigError) as err:
        cli.load_config(str(p))
    assert "line" in str(err.value)


# ---------------------------------------------------------------------------
# runner behaviour and exit codes
# ---------------------------------------------------------------------------

def test_simulate_writes_header_and_paths(tmp_path):
    cfgfile = write_yaml(tmp_path, "sim.yaml", simulate_cfg())
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", cfgfile, "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = (out / "ensemble.csv").read_text().strip().splitlines()
    assert lines[0] == "t_0,t_1,t_2"
    assert len(lines) == 1 + 4


def test_simulate_zero_paths_is_validation_error(tmp_path):
    cfgfile = write_yaml(tmp_path, "sim.yaml", simulate_cfg(n_paths=0))
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", cfgfile, "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    assert not out.exists()


def test_validate_subcommand_exit_codes(tmp_path):
    good = write_yaml(tmp_path, "good.yaml", simulate_cfg())
    assert cli.main(["validate", "--config", good]) == cli.EXIT_OK
    bad_cfg = simulate_cfg()
    bad_cfg["map"] = {"quantile": {"family": "TukeyGH", "h": -1.0}}
    bad = write_yaml(tmp_path, "bad.yaml", bad_cfg)
    assert cli.main(["validate", "--config", bad]) == cli.EXIT_VALIDATION


def test_seed_override_changes_output(tmp_path):
    cfgfile = write_yaml(tmp_path, "sim.yaml", simulate_cfg())
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    cli.main(["simulate", "--config", cfgfile, "--out", str(out1)])
    cli.main(["simulate", "--config", cfgfile, "--out", str(out2), "--seed", "7"])
    cli.main(["simulate", "--config", cfgfile, "--out", str(out3)])
    a = (out1 / "ensemble.csv").read_text()
    b = (out2 / "ensemble.csv").read_text()
    c = (out3 / "ensemble.csv").read_text()
    assert a != b
    assert a == c  # byte-identical reruns


def test_price_runs_and_reports(tmp_path):
    cfg = {
        "kind": "price",
        "seed": 3,
        "n_paths": 20_000,
        "driver": {"kind": "Brownian"},
        "map": {"mode": "TrueLaw",
                "dist": {"family": "Gaussian", "brownian_scaling": True},
                "quantile": {"family": "TukeyG", "a": 0, "b": 1, "g": 0.5}},
        "payoff": {"kind": "Layer", "a": 1.0, "b": 2.0},
        "u": 1.0,
    }
    cfgfile = write_yaml(tmp_path, "price.yaml", cfg)
    out = tmp_path / "out"
    rc = cli.main(["price", "--config", cfgfile, "--out", str(out)])
    assert rc == cli.EXIT_OK
    payload = json.loads((out / "price.json").read_text())
    assert payload["price"] > 0
    assert payload["std_error"] > 0


def test_price_multidimensional_with_copula(tmp_path):
    cfg = {
        "kind": "price",
        "seed": 5,
        "n_paths": 20_000,
        "driver": {"kind": "Brownian"},
        "copula": {"family": "Clayton", "theta": 1.5, "dim": 2},
        "map": {"quantile": {"family": "TukeyG", "a": 0, "b": 1, "g": 0.4}},
        "payoff": {"kind": "Layer", "a": 0.5, "b": 2.0},
        "u": 1.0,
    }
    cfgfile = write_yaml(tmp_path, "mprice.yaml", cfg)
    out = tmp_path / "out"
    rc = cli.main(["price", "--config", cfgfile, "--out", str(out)])
    assert rc == cli.EXIT_OK
    payload = json.loads((out / "price.json").read_text())
    assert payload["price"] > 0


def test_dominance_runs(tmp_path):
    cfg = {
        "kind": "dominance",
        "seed": 0,
        "map1": {"quantile": {"family": "TukeyGH", "a": 0, "b": 1, "g": 2.0, "h": 0.4}},
        "map2": {"quantile": {"family": "TukeyGH", "a": 0, "b": 1, "g": 0.8, "h": 0.05}},
    }
    cfgfile = write_yaml(tmp_path, "dom.yaml", cfg)
    out = tmp_path / "out"
    assert cli.main(["dominance", "--config", cfgfile, "--out", str(out)]) == cli.EXIT_OK
    payload = json.loads((out / "dominance.json").read_text())
    assert payload["u_star"] == pytest.approx(0.0218, abs=0.001)
    assert payload["crossing_domain_lower"] == pytest.approx(-1.109, abs=0.01)
    # the CDFs cross near z = -1.11 and the SOSD running integral dips to -0.011
    assert payload["fosd"]["order"] is None
    assert payload["sosd"]["order"] is None
    assert payload["sosd"]["inconclusive"] is False


def test_tariff_emits_sorted_csv(tmp_path):
    cfg = {
        "kind": "tariff",
        "seed": 11,
        "n_paths": 20_000,
        "unit_cost": 2.0,
        "u": 1.0,
        "exporters": [
            {"name": "A", "g": 0.6, "gamma": 0.0, "driver": {"kind": "Brownian"}},
            {"name": "B", "g": 0.2, "gamma": 0.0, "driver": {"kind": "Brownian"}},
        ],
    }
    cfgfile = write_yaml(tmp_path, "tariff.yaml", cfg)
    out = tmp_path / "out"
    assert cli.main(["tariff", "--config", cfgfile, "--out", str(out)]) == cli.EXIT_OK
    rows = (out / "tariff.csv").read_text().strip().splitlines()[1:]
    prices = [float(r.split(",")[3]) for r in rows]
    assert prices == sorted(prices)
    checks = json.loads((out / "tariff_checks.json").read_text())
    assert checks["monotone_in_g"] is True


# ---------------------------------------------------------------------------
# reproduction experiments
# ---------------------------------------------------------------------------

def test_reproduce_crossing_table(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "crossing-table", "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "crossing_table.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    u_stars = [float(r[4]) for r in rows]
    assert u_stars[0] == pytest.approx(0.0218, abs=0.001)
    assert u_stars[1] == pytest.approx(0.0, abs=1e-3)
    assert u_stars[2] == pytest.approx(1.0, abs=1e-3)
    assert float(rows[0][5]) == pytest.approx(-1.109, abs=0.01)
    # boundary rows carry the convention note instead of a silent direction flip
    assert "boundary" in rows[2][7]


def test_reproduce_crossing_curves(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "crossing-curves", "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "crossing_curves.csv").read_text().strip().splitlines()[1:]
    series = {}
    for line in lines:
        dh, dg, u = (float(x) for x in line.split(","))
        series.setdefault(dh, []).append((dg, u))
    for dh, pts in series.items():
        us = [u for _, u in sorted(pts)]
        assert all(a >= b - 1e-9 for a, b in zip(us, us[1:]))


def test_reproduce_sosd_split_g(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "sosd-split-g", "--out", str(out)]) == cli.EXIT_OK
    header, row = (out / "sosd_split_g.csv").read_text().strip().splitlines()
    cells = row.split(",")
    assert float(cells[3]) == pytest.approx(0.1341347, abs=1e-4)
    assert float(cells[4]) == pytest.approx(0.0660684, abs=1e-4)
    assert cells[5] == "True"


def test_reproduce_pivot_moments(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["reproduce", "pivot-moments", "--out", str(out), "--seed", "1"])
    assert rc == cli.EXIT_OK
    lines = (out / "pivot_moments.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 draws
    for line in lines[1:]:
        vals = [float(x) for x in line.split(",")]
        # formula and Monte Carlo means agree loosely at this budget
        assert vals[3] == pytest.approx(vals[4], abs=0.05)


def test_idempotent_reproduction(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["reproduce", "crossing-table", "--out", str(out1)])
    cli.main(["reproduce", "crossing-table", "--out", str(out2)])
    assert (out1 / "crossing_table.csv").read_bytes() == (out2 / "crossing_table.csv").read_bytes()
