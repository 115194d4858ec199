import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from quantproc import cli
from quantproc import transforms as tr
from quantproc._util import substream
from quantproc.errors import ConfigError

from test_golden import GOLDEN


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


def scalar_entry_cfg(entry):
    """A config of the kind that reads ``entry``, with that entry set to a scalar."""
    quantile = {"family": "TukeyGH", "a": 0, "b": 1, "g": 0.5, "h": 0.1}
    if entry.startswith("map1") or entry.startswith("map2"):
        cfg = {"kind": "dominance", "map1": {"quantile": dict(quantile)},
               "map2": {"quantile": dict(quantile)}}
    elif entry.startswith("exporters"):
        cfg = {"kind": "tariff", "n_paths": 1000,
               "exporters": [{"g": 0.6, "driver": {"kind": "Brownian"}}, {"g": 0.2}]}
    elif entry.startswith("drivers"):
        cfg = price_cfg()
        cfg["copula"] = {"family": "Clayton", "theta": 1.5, "dim": 2}
        cfg["drivers"] = [{"kind": "Brownian"}, {"kind": "Brownian"}]
    else:
        cfg = price_cfg()
    *path, last = entry.replace("[", ".").replace("]", "").split(".")
    node = cfg
    for key in path:
        node = node[int(key)] if key.isdigit() else node[key]
    node[int(last) if last.isdigit() else last] = "Brownian"
    return cfg


@pytest.mark.parametrize("section", ["driver", "grid", "map", "map1", "map2", "payoff", "copula",
                                     "map.quantile", "map.dist", "map1.quantile",
                                     "map2.quantile", "exporters[1]", "exporters[0].driver",
                                     "drivers[1]"])
def test_non_mapping_section_is_validation_failure(tmp_path, capsys, section):
    cfg = scalar_entry_cfg(section)
    cfgfile = write_yaml(tmp_path, "scalar.yaml", cfg)
    for command in ("validate", cfg["kind"]):
        rc = cli.main([command, "--config", cfgfile, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"{section}: must be a mapping" in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def copula_price_cfg(*drivers):
    cfg = price_cfg()
    cfg["copula"] = {"family": "Clayton", "theta": 1.5, "dim": 2}
    cfg["drivers"] = list(drivers)
    return cfg


def tariff_cfg(driver, **entries):
    return {"kind": "tariff", "n_paths": 1000,
            "exporters": [{"g": 0.6, "driver": driver, **entries}, {"g": 0.2}]}


def with_entries(cfg, **entries):
    return {**cfg, **entries}


def command_for(kind):
    """The subcommand that runs a config of ``kind``."""
    name = kind.removeprefix("reproduce-")
    return ["reproduce", name] if name != kind else [kind]


@pytest.mark.parametrize("field, cfg", [
    ("drivers[1]", copula_price_cfg({"kind": "Brownian"}, {"kind": "Frobnicate"})),
    ("drivers[1]", copula_price_cfg({"kind": "Brownian"}, {"kind": "VarianceGamma", "nu": -1})),
    ("exporters[0].driver", tariff_cfg({"kind": "Frobnicate"})),
    ("exporters[0].driver", tariff_cfg({"kind": "GammaProcess", "mean_rate": -1})),
    ("drivers", copula_price_cfg({"kind": "Brownian"})),
    ("t", with_entries(price_cfg(), t="soon")),
    ("n_paths", with_entries(price_cfg(), n_paths="many")),
    ("n_paths", with_entries(price_cfg(), n_paths="1e6")),
    ("u", with_entries(price_cfg(), u="later")),
    ("rate", with_entries(price_cfg(), rate="fast")),
    ("n_paths", with_entries(price_cfg(), n_paths=2.5)),
    ("n_paths", with_entries(price_cfg(), n_paths=500)),
    ("seed", with_entries(price_cfg(), seed=True)),
    ("seed", with_entries(simulate_cfg(), seed=-1)),
    ("seed", {"kind": "reproduce-pivot-moments", "seed": -1}),
    ("seed", with_entries(price_cfg(), seed=-1)),
    ("exporters[0].gamma", tariff_cfg({"kind": "Brownian"}, gamma="z")),
    ("exporters[0].g", tariff_cfg({"kind": "Brownian"}, g="x")),
    ("unit_cost", with_entries(tariff_cfg({"kind": "Brownian"}), unit_cost="lots")),
    ("g2", {"kind": "reproduce-sosd-split-g", "g2": "abc"}),
    ("g_gaps", {"kind": "reproduce-crossing-curves", "g_gaps": ["a"]}),
    ("n_paths", {"kind": "reproduce-pivot-moments", "n_paths": 0}),
    ("t", {"kind": "dominance", "t": -1,
           "map1": {"quantile": {"family": "TukeyGH", "a": 0, "b": 1, "g": 0.5, "h": 0.1}},
           "map2": {"quantile": {"family": "TukeyGH", "a": 0, "b": 1, "g": 0.2, "h": 0.1}}}),
], ids=["margin-kind", "margin-parameter", "exporter-kind", "exporter-parameter",
        "margin-count", "t-string", "n_paths-string", "n_paths-1e6-string", "u-string",
        "rate-string", "n_paths-fraction", "n_paths-below-mc-floor", "seed-bool",
        "simulate-seed-negative", "pivot-seed-negative", "price-seed-negative",
        "exporter-gamma-string", "exporter-g-string", "unit_cost-string", "split-g2-string",
        "g_gaps-entry-string", "pivot-n_paths-zero", "dominance-t-negative"])
def test_validate_builds_every_object_a_run_builds(tmp_path, capsys, field, cfg):
    # every object and scalar key a run reads is checked before anything runs
    cfgfile = write_yaml(tmp_path, "unbuilt.yaml", cfg)
    for command in (["validate"], command_for(cfg["kind"])):
        rc = cli.main(command + ["--config", cfgfile, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"\n{field}: " in "\n" + captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_a_table_quantile_is_read_once_per_run(tmp_path, monkeypatch):
    table = tmp_path / "table.csv"
    table.write_text("0.0,-3.0\n0.5,0.0\n1.0,3.0\n")
    reads = []
    from_csv = tr.TableQuantile.from_csv
    monkeypatch.setattr(tr.TableQuantile, "from_csv",
                        lambda path: reads.append(path) or from_csv(path))
    cfg = price_cfg()
    cfg["n_paths"] = 1000
    cfg["map"]["quantile"] = {"family": "TableDriven", "csv": str(table)}
    out = tmp_path / "out"
    rc = cli.main(["price", "--config", write_yaml(tmp_path, "table.yaml", cfg), "--out", str(out)])
    assert rc == cli.EXIT_OK and (out / "price.json").exists()
    assert reads == [str(table)]


def test_readme_lists_every_declared_key():
    # README's key table and the plan's table name the same (kind, key) pairs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| kind | key | type | default | range |\n|---|---|---|---|---|\n")[1]
    listed = set()
    for row in table[:table.index("\n\n")].splitlines():
        kinds, key = row.split(" | ")[:2]
        kinds = cli.KINDS if kinds == "| every kind" else kinds.strip("| `").split("`, `")
        listed |= {(kind, key.strip("`")) for kind in kinds}
    declared = {(kind, "seed") for kind in cli.KINDS}
    declared |= {(kind, key) for kind, (_, _, keys) in cli._KINDS.items() for key in keys}
    declared |= {(f"{name}[i]", key) for name, keys in cli._ENTRY_KEYS.items() for key in keys}
    assert listed == declared


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


def test_driver_law_dist_is_the_config_driver(tmp_path):
    # a TrueLaw map reads the driver's own law whether the dist names DriverLaw, is left
    # out, or is the Brownian-scaled Gaussian; DriverLaw takes no keys of its own
    prices = []
    for i, dist in enumerate(({"family": "DriverLaw"}, None,
                              {"family": "Gaussian", "brownian_scaling": True})):
        cfg = {"kind": "price", "seed": 3, "n_paths": 2_000, "driver": {"kind": "Brownian"},
               "map": {"mode": "TrueLaw", "dist": dist,
                       "quantile": {"family": "TukeyG", "a": 0, "b": 1, "g": 0.5}},
               "payoff": {"kind": "Layer", "a": 1.0, "b": 2.0}, "u": 1.0}
        out = tmp_path / f"out{i}"
        assert cli.main(["price", "--config", write_yaml(tmp_path, f"p{i}.yaml", cfg),
                         "--out", str(out)]) == cli.EXIT_OK
        prices.append(json.loads((out / "price.json").read_text())["price"])
    assert prices[0] == prices[1] == prices[2]
    cfg["map"]["dist"] = {"family": "DriverLaw", "shift": 0.2}
    assert [d.field for d in cli.validate_config(cfg)] == ["map"]


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


def test_pivot_moment_products_match_powers(tmp_path, monkeypatch):
    # the runner forms the third and fourth central moments from products; they
    # match the ``**`` forms, which numpy evaluates through pow, to round-off
    n = 200_000
    captured = {}
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, header, rows: captured.update(header=header, rows=rows))
    cli.run({"kind": "reproduce-pivot-moments", "seed": 1, "n_paths": n}, str(tmp_path))
    col = captured["header"].index
    assert len(captured["rows"]) == 5
    for i, row in enumerate(captured["rows"]):
        g, v, m = row[:3]
        x = substream(1, 32, i).standard_normal(n)
        z = 0.0 + 1.0 / g * np.expm1(g * (x - m) / math.sqrt(v))
        zc = z - float(np.mean(z))
        var = float(np.var(z, ddof=1))
        assert row[col("skew_mc")] == pytest.approx(np.mean(zc ** 3) / var ** 1.5,
                                                    rel=1e-13, abs=0.0)
        assert row[col("kurt_excess_mc")] == pytest.approx(np.mean(zc ** 4) / var ** 2 - 3.0,
                                                           rel=1e-13, abs=0.0)


def test_write_csv_formats_floats_as_format_9g(tmp_path):
    # every float cell is format(x, ".9g") and every other cell str(x), byte for byte
    rows = [["plain", 1, -0.0, float("nan")],
            ["50% share", -7, float("inf"), float("-inf")],
            [True, np.float64(1e-300), 123456789012.0, 0.1 + 0.2],
            ["%s%d", np.int64(3), 5e-324, -1.2345678949e-7]]
    path = tmp_path / "cells.csv"
    cli._write_csv(path, ["s", "i", "x", "y"], rows)
    want = "s,i,x,y\n" + "".join(
        ",".join(format(c, ".9g") if isinstance(c, float) else str(c) for c in row) + "\n"
        for row in rows)
    assert path.read_bytes() == want.encode()


def test_idempotent_reproduction(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["reproduce", "crossing-table", "--out", str(out1)])
    cli.main(["reproduce", "crossing-table", "--out", str(out2)])
    assert (out1 / "crossing_table.csv").read_bytes() == (out2 / "crossing_table.csv").read_bytes()


# ---------------------------------------------------------------------------
# fuzz: one scalar key, exporter field or draw field mutated
# ---------------------------------------------------------------------------

def fuzz_bases():
    """The golden configs, with at most 2000 paths, plus a tariff and a pivot-moments
    config with explicit exporters and draws."""
    bases = {name: yaml.safe_load(text) for name, (_, text, _) in GOLDEN.items() if text}
    bases.update({name: {"kind": f"reproduce-{name}"} for name in cli.REPRODUCE_KINDS})
    bases["tariff"] = {"kind": "tariff", "seed": 11, "unit_cost": 2.0, "exporters": [
        {"name": "A", "g": 0.6, "gamma": 0.0, "driver": {"kind": "Brownian"}},
        {"name": "B", "g": 0.2, "gamma": 0.5}]}
    bases["draws"] = {"kind": "reproduce-pivot-moments", "seed": 1,
                      "draws": [{"g": 0.4, "v": 1.0, "m": 0.1, "a": 0.0, "b": 1.0}]}
    for cfg in bases.values():
        if "n_paths" in cli._KINDS[cfg["kind"]][2]:
            cfg["n_paths"] = min(cfg.get("n_paths", 2000), 2000)
    return bases


FUZZ_BASES = fuzz_bases()
#: (base, path of the mutated entry) for every declared key of every base
FUZZ_TARGETS = [(name, (key,)) for name, cfg in FUZZ_BASES.items()
                for key in ["seed", *cli._KINDS[cfg["kind"]][2]]]
FUZZ_TARGETS += [("tariff", ("exporters", i, key)) for i in (0, 1)
                 for key in cli._ENTRY_KEYS["exporters"]]
FUZZ_TARGETS += [("draws", ("draws", 0, key)) for key in cli._ENTRY_KEYS["draws"]]
FUZZ_VALUES = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.integers(max_value=0), st.integers(1, 5000),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(FUZZ_TARGETS), value=FUZZ_VALUES)
def test_fuzzed_scalar_exits_0_2_or_3_and_exit_2_writes_nothing(target, value):
    name, (*path, key) = target
    cfg = copy.deepcopy(FUZZ_BASES[name])
    node = cfg
    for step in path:
        node = node[step]
    node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfgfile = write_yaml(Path(tmp), "fuzz.yaml", cfg)
        rc = cli.main(command_for(cfg["kind"]) + ["--config", cfgfile, "--out", str(out)])
        assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERIC)
        assert rc != cli.EXIT_VALIDATION or not out.exists()
