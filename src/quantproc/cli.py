"""Config-driven batch runner.

Wires drivers, composite maps, dominance checks, and valuation into
reproducible experiments described by a YAML file.  Every experiment is
deterministic given its config (all seeds explicit), emits CSV or JSON
artifacts, and exits 0 on success, 2 on validation failure, 3 on numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import copulas as cp
from . import dominance as dom
from . import drivers as drv
from . import transforms as tr
from . import valuation as va
from ._util import substream
from .errors import (CapabilityError, ConfigError, MappingError, NumericError,
                     ParameterError, RequestError, SimulationError)

__all__ = ["main", "run", "validate_config", "load_config", "Diagnostic"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def _write(path: Path, text: str) -> Path:
    """Write an artifact, making its directory first, so a run that fails writes nothing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    """Float cells get 9 significant digits (``format(x, ".9g")``), for meaningful
    golden-file diffs; other cells are ``str``.  Each row is one %-format."""
    lines = [",".join(header)]
    for row in rows:
        fmt = ",".join(["%.9g" if isinstance(c, float) else "%s" for c in row])
        lines.append(fmt % tuple(row))
    return _write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config does not parse{loc}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    return cfg


#: each config section's selector key, and the classes it selects among
_CATALOGUE = {
    "driver": ("kind", (drv.Brownian, drv.InhomogeneousOU, drv.VarianceGamma, drv.GammaProcess,
                        drv.InhomogeneousPoisson)),
    "quantile": ("family", (tr.TukeyG, tr.TukeyGH, tr.GaussianLaw)),
    "dist": ("family", (tr.GaussianLaw, tr.ShiftedDriverLaw, tr.EmpiricalLaw)),
    "payoff": ("kind", (va.Linear, va.Layer, va.StopLoss, va.PowerUtility, va.TablePayoff)),
    "copula": ("family", (cp.IndependenceCopula, cp.ComonotoneCopula, cp.GaussianCopula,
                          cp.ClaytonCopula, cp.GumbelCopula)),
}


def _build(section: str, spec: dict):
    """The ``section`` class whose selector attribute (kind or family) is the spec's,
    constructed from the section's other entries."""
    key, classes = _CATALOGUE[section]
    name = spec.get(key)
    by_name = {getattr(cls, key): cls for cls in classes}
    if name not in by_name:
        raise ConfigError(f"unknown {section} {key} {name!r}")
    try:
        return by_name[name](**{k: v for k, v in spec.items() if k != key})
    except TypeError as exc:
        raise ConfigError(f"{section}.{name}: {exc}")


def _build_quantile(spec: dict) -> tr.Law:
    if spec.get("family") == "TableDriven":
        params = {k: v for k, v in spec.items() if k != "family"}
        if set(params) == {"csv"}:
            return tr.TableQuantile.from_csv(params["csv"])
        if set(params) == {"u", "z"}:
            return tr.TableQuantile(u_knots=params["u"], z_knots=params["z"])
        raise ConfigError("quantile.TableDriven: give either csv or both u and z")
    return _build("quantile", spec)


def _build_dist(spec: Optional[dict], driver: Optional[drv.Driver]) -> Optional[tr.Law]:
    if spec is None:
        return None
    family = spec.get("family")
    if family == "Gaussian":
        spec = dict(spec)
        if spec.pop("brownian_scaling", False):
            return drv.Brownian()
    if family in ("DriverLaw", "ShiftedDriverLaw"):
        if driver is None:
            raise ConfigError(f"{family} distribution needs a valid driver in the config")
        if family == "DriverLaw":  # the config driver is its own marginal law
            if len(spec) > 1:
                raise ConfigError(f"dist.DriverLaw takes no keys, got {sorted(set(spec) - {'family'})}")
            return driver
        spec = {**spec, "driver": driver}
    return _build("dist", spec)


def _build_map(spec: dict, driver: Optional[drv.Driver]) -> tr.CompositeMap:
    mode = tr.MapMode(spec.get("mode", "FalseLaw"))  # an unknown mode is a ValueError
    quantile = _build_quantile(spec.get("quantile", {}))
    # a TrueLaw map without a dist reads the driver's own law when applied
    return tr.CompositeMap(dist=_build_dist(spec.get("dist"), driver), quantile=quantile, mode=mode)


def _build_payoff(spec: dict) -> va.Payoff:
    if spec.get("kind") == "Custom":
        knots = {"y": "y_knots", "v": "v_knots"}
        spec = {knots.get(k, k): v for k, v in spec.items()}
    return _build("payoff", spec)


def _non_mappings(cfg: dict) -> list[str]:
    """Names of the present config entries that should be mappings and are not."""
    entries = {s: cfg[s] for s in ("driver", "grid", "map", "map1", "map2", "payoff", "copula")
               if s in cfg}
    maps = {s: cfg[s] for s in ("map", "map1", "map2") if isinstance(cfg.get(s), dict)}
    entries.update({f"{s}.quantile": m["quantile"] for s, m in maps.items() if "quantile" in m})
    if maps.get("map", {}).get("dist") is not None:  # a null dist means "no distribution spec"
        entries["map.dist"] = maps["map"]["dist"]
    for name in ("exporters", "drivers", "draws"):
        for i, item in enumerate(cfg[name] if isinstance(cfg.get(name), list) else []):
            entries[f"{name}[{i}]"] = item
            if name == "exporters" and isinstance(item, dict) and "driver" in item:
                entries[f"{name}[{i}].driver"] = item["driver"]
    return [name for name, value in entries.items() if not isinstance(value, dict)]


#: marks a key that has no default
_REQUIRED = object()
#: what each declared type admits: a bool is no number, and no string is converted
_TYPES = {int: "an integer", float: "a finite number", str: "a string",
          list: "a non-empty list of finite numbers"}


def _admits(kind: type, value) -> bool:
    if kind is list:
        return isinstance(value, list) and bool(value) and all(_admits(float, v) for v in value)
    if isinstance(value, bool):
        return False
    if kind is float:   # NaN and the infinities fail the comparison, as does a huge int
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _read(diags: list, prefix: str, spec: dict, keys: dict) -> Optional[dict]:
    """``spec``'s value of each of ``keys``, typed, a missing one read as its default; None
    once every missing, mistyped or out-of-range key has its diagnostic under its name."""
    values = {}
    for key, (kind, default, least) in keys.items():
        value = spec.get(key, default)
        if value is None and default is None:   # an optional key left out
            values[key] = None
        elif _admits(kind, value) and (least is None or value >= least):
            values[key] = [float(v) for v in value] if kind is list else kind(value)
        else:
            bound = "" if least is None else f" >= {least}"
            diags.append(Diagnostic(prefix + key, "is required" if value is _REQUIRED
                                    else f"must be {_TYPES[kind]}{bound}, got {value!r}"))
    return values if len(values) == len(keys) else None


def _plan(cfg: dict) -> tuple[list[Diagnostic], dict]:
    """Build and validate, once, every object a run of ``cfg`` reads.

    Returns every violation, each under its field name, and what built and validated:
    each object by field name (a copula's quantile and composite map as ``quantile`` and
    ``joint_map``, a pricing request as ``request``) and each declared key, typed.
    """
    kind = cfg.get("kind")
    if kind not in KINDS:
        return [Diagnostic("kind", f"must be one of {', '.join(KINDS)}")], {}
    diags = [Diagnostic(name, "must be a mapping") for name in _non_mappings(cfg)]
    if diags:
        return diags, {}
    built: dict = {}

    def build(fieldname: str, make, key: Optional[str] = None):
        try:
            obj = make()
            if hasattr(obj, "validate"):  # a TimeGrid checks itself when built
                obj.validate()
            built[key or fieldname] = obj
            return obj
        except (ConfigError, ParameterError, RequestError, LookupError, ValueError) as exc:
            diags.append(Diagnostic(fieldname, str(exc)))

    if "driver" in cfg:
        build("driver", lambda: _build("driver", cfg["driver"]))
    if "grid" in cfg:
        build("grid", lambda: drv.TimeGrid(np.asarray(cfg["grid"]["times"], dtype=float),
                                           cfg["grid"].get("origin_value")))
    if "map" in cfg:
        if "copula" in cfg:
            # multidimensional maps pair the quantile with per-margin driver laws
            build("map", lambda: _build_quantile(cfg["map"]["quantile"]), key="quantile")
        else:
            build("map", lambda: _build_map(cfg["map"], built.get("driver")))
    for key in ("map1", "map2"):
        if key in cfg:
            # dominance compares canonical quantile families; only they validate
            build(key, lambda: _build_quantile(cfg[key]["quantile"]))
    if "payoff" in cfg:
        build("payoff", lambda: _build_payoff(cfg["payoff"]))
    if "copula" in cfg:
        build("copula", lambda: _build("copula", cfg["copula"]))
        # one driver per copula margin: the drivers list, else the driver in each
        specs = cfg["drivers"] if isinstance(cfg.get("drivers"), list) else []
        margins = [build(f"drivers[{i}]", lambda: _build("driver", spec))
                   for i, spec in enumerate(specs)]
        if {"quantile", "copula"} <= built.keys():
            margins = margins or [built.get("driver")] * built["copula"].dim
            if None not in margins:
                build("drivers", lambda: cp.MultiCompositeMap(tuple(margins), built["copula"],
                                                              built["quantile"]), key="joint_map")
    for name in ("drivers", "draws"):
        if cfg.get(name) is not None and not isinstance(cfg[name], list):
            diags.append(Diagnostic(name, "must be a list of mappings"))
    for req in _KINDS[kind][1]:
        if req not in cfg:
            diags.append(Diagnostic(req, f"{kind} needs a {req} section"))
    if kind == "tariff":
        specs = cfg["exporters"] if isinstance(cfg.get("exporters"), list) else []
        if len(specs) < 2:
            diags.append(Diagnostic("exporters", "tariff needs a list of >= 2 exporters"))
        built["exporters"] = []
        for i, spec in enumerate(specs):
            # an exporter without a driver of its own reads the config's, else a Brownian one
            driver = (build(f"exporters[{i}].driver", lambda: _build("driver", spec["driver"]))
                      if "driver" in spec else built.get("driver", drv.Brownian()))
            e = _read(diags, f"exporters[{i}].", spec, _ENTRY_KEYS["exporters"])
            if e is not None:
                ex = va.Exporter(e["name"] or str(i), e["gamma"], e["g"], driver)
                build(f"exporters[{i}].gamma", lambda: ex.map().dist)
                build(f"exporters[{i}].g", lambda: ex.map().quantile)
                built["exporters"].append(ex)
    s = _read(diags, "", cfg, {"seed": (int, 0, 0), **_KINDS[kind][2]})
    if s is None:
        return diags, built
    built.update(s)
    if kind in ("price", "tariff", "reproduce-pivot-moments"):
        build("n_paths", lambda: va.MCSettings(n_paths=s["n_paths"], seed=s["seed"]), key="mc")
    risk, cmap = built.get("driver"), built.get("joint_map", built.get("map"))
    if kind == "price" and "joint_map" in built:   # a copula premium prices one margin
        risk = build("risk_index", lambda: cmap.margins[s["risk_index"]], key="risk")
    if kind == "tariff":   # each exporter's request differs from the first's in its map only
        build("unit_cost", lambda: va.Linear(s["unit_cost"]), key="payoff")
        ex = None if diags else built["exporters"][0]
        risk, cmap = (ex.driver, ex.map()) if ex else (None, None)
    if kind in ("price", "tariff") and None not in (risk, cmap) and {"payoff", "mc"} <= built.keys():
        build("t, u, state", lambda: va.ValuationRequest(risk, cmap, built["payoff"], s["t"],
                                                         s["u"], s["rate"], built["mc"], s["state"]),
              key="request")
    if kind == "reproduce-sosd-split-g":
        build("g1_below, g1_above, g2", lambda: dom.split_g_sosd_integrals(
            s["g1_below"], s["g1_above"], s["g2"]), key="integrals")
    if kind == "reproduce-pivot-moments":
        specs = cfg.get("draws")
        if specs is None:
            rng = substream(s["seed"], 31)
            specs = [{"g": float(g), "v": float(v), "m": float(m)}
                     for g, v, m in zip(rng.uniform(0.1, 1.0, 5), rng.uniform(0.5, 2.0, 5),
                                        rng.uniform(-1.0, 1.0, 5))]
        draws = [_read(diags, f"draws[{i}].", spec, _ENTRY_KEYS["draws"])
                 for i, spec in enumerate(specs if isinstance(specs, list) else [])]
        built["draws"] = [(d, build(f"draws[{i}]", lambda: tr.tukey_g_gaussian_moments(
            d["a"], d["b"], d["g"], d["m"], d["v"]))) for i, d in enumerate(draws) if d]
    return diags, built


def validate_config(cfg: dict) -> list[Diagnostic]:
    """All violations of the declarative specs, without running anything."""
    return _plan(cfg)[0]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_simulate(built: dict, out: Path) -> list[Path]:
    grid = built["grid"]
    ens = drv.simulate(built["driver"], grid, built["n_paths"], built["seed"])
    header = [f"t_{k}" for k in range(len(grid))]
    return [_write_csv(out / "ensemble.csv", header, ens.paths.tolist())]


def _run_dominance(built: dict, out: Path) -> list[Path]:
    q1, q2, t = built["map1"], built["map2"], built["t"]
    rep = dom.crossing_report(q1, q2, t)
    lo = min(q1.support(t)[0], q2.support(t)[0])
    F1 = lambda z: q1.cdf(t, z)
    F2 = lambda z: q2.cdf(t, z)
    fosd = dom.fosd_check(F1, F2, (lo, np.inf))
    sosd = dom.sosd_check(F1, F2, (lo, np.inf))
    report = {
        "u_star": rep.u_star,
        "crossing_domain_lower": rep.domain_lower,
        "crossing_direction": rep.direction,
        "fosd": {"order": fosd.order, "direction": fosd.direction,
                 "domain_lower": fosd.domain_lower, "witness": fosd.strictness_witness},
        "sosd": {"order": sosd.order, "direction": sosd.direction,
                 "inconclusive": sosd.inconclusive},
        "notes": rep.notes,
    }
    return [_write(out / "dominance.json", json.dumps(report, indent=2, default=float) + "\n"),
            _write_csv(out / "dominance_evidence.csv", ["z", "cdf_diff"],
                       [[float(z), float(dd)] for z, dd in zip(fosd.evidence["z"],
                                                               fosd.evidence["cdf_diff"])])]


def _run_price(built: dict, out: Path) -> list[Path]:
    req = built["request"]   # with a copula, its map is the joint map over the margins
    res = (cp.multi_layer_premium(req.map, req.map.margins, built["risk_index"], req.payoff,
                                  req.t, req.u, req.rate, req.mc)
           if "joint_map" in built else va.qpvp_price(req))
    return [_write(out / "price.json", json.dumps({
        "price": res.price, "std_error": res.std_error,
        "risk_loading": res.risk_loading, "diagnostics": res.diagnostics,
    }, indent=2, default=float) + "\n")]


def _run_tariff(built: dict, out: Path) -> list[Path]:
    req = built["request"]
    table = va.carbon_tariff_table(built["exporters"], req.payoff.scale, req.t, req.u, req.rate,
                                   req.mc, req.state)
    header = ["name", "gamma", "g", "price", "std_error"]
    return [_write_csv(out / "tariff.csv", header, [[r[k] for k in header] for r in table["rows"]]),
            _write(out / "tariff_checks.json",
                   json.dumps({"monotone_in_g": table["monotone_in_g"]}) + "\n")]


#: canonical skew/kurtosis parameter sets whose crossing levels and dominance
#: domains are pinned by the acceptance suite
CROSSING_TABLE_ROWS = (
    (2.0, 0.8, 0.4, 0.05),
    (3.0, 0.5, 0.2, 0.05),
    (2.0, 0.8, 0.05, 0.4),
    (2.0, 1.5, 0.05, 0.2),
)


def _run_crossing_table(built: dict, out: Path) -> list[Path]:
    rows = []
    for g1, g2, h1, h2 in CROSSING_TABLE_ROWS:
        q1 = tr.TukeyGH(0.0, 1.0, g1, h1)
        q2 = tr.TukeyGH(0.0, 1.0, g2, h2)
        rep = dom.crossing_report(q1, q2)
        u = rep.u_star if rep.u_star is not None else math.nan
        direction = {1: "1>2", -1: "2>1", 0: "none"}[rep.direction]
        note = rep.notes.replace(",", ";")
        rows.append([g1, g2, h1, h2, float(u), float(rep.domain_lower), direction, note])
    return [_write_csv(out / "crossing_table.csv",
                       ["g1", "g2", "h1", "h2", "u_star", "domain_lower", "direction", "note"],
                       rows)]


def _run_crossing_curves(built: dict, out: Path) -> list[Path]:
    g2, h2 = 0.1, 0.05
    rows = []
    for dh in (0.2, 0.35, 0.5):
        for dg in built["g_gaps"]:
            q1 = tr.TukeyGH(0.0, 1.0, g2 + dg, h2 + dh)
            q2 = tr.TukeyGH(0.0, 1.0, g2, h2)
            u = dom.crossing_u_star(q1, q2)
            rows.append([dh, dg, float(u if u is not None else math.nan)])
    return [_write_csv(out / "crossing_curves.csv", ["h_gap", "g_gap", "u_star"], rows)]


def _run_sosd_split_g(built: dict, out: Path) -> list[Path]:
    g1a, g1b, g2 = built["g1_below"], built["g1_above"], built["g2"]
    left, right = built["integrals"]
    F1 = dom.state_dependent_tukey_g_cdf(g1a, g1b)
    q2 = tr.TukeyG(0.0, 1.0, g2)
    F2 = lambda z: q2.cdf(1.0, z)
    fosd = dom.fosd_check(F1, F2, (-1.0 / g2, np.inf))
    sosd = dom.sosd_check(F1, F2, (-1.0 / g2, np.inf))
    return [_write_csv(out / "sosd_split_g.csv",
                       ["g1_below", "g1_above", "g2", "left_integral", "right_integral",
                        "sosd_inequality_holds", "fosd_order", "sosd_order", "sosd_direction"],
                       [[g1a, g1b, g2, float(left), float(right), str(left >= right),
                         str(fosd.order), str(sosd.order), sosd.direction]])]


def _run_pivot_moments(built: dict, out: Path) -> list[Path]:
    mc = built["mc"]
    rows = []
    for i, (d, mom) in enumerate(built["draws"]):
        a, b, g, v, m = (d[k] for k in "abgvm")
        x = substream(mc.seed, 32, i).standard_normal(mc.n_paths)
        with np.errstate(all="ignore"):  # a moment the floats cannot resolve raises below
            z = a + b / g * np.expm1(g * (x - m) / math.sqrt(v))
            mc_mean = float(np.mean(z))
            mc_var = np.var(z, ddof=1)
            zc = z - mc_mean
            zc2 = zc * zc   # products, not ``**``: numpy sends powers other than 2 to pow
            mc_skew = float(np.mean(zc2 * zc) / mc_var ** 1.5)
            mc_kurt = float(np.mean(zc2 * zc2) / mc_var ** 2 - 3.0)
        if not all(map(math.isfinite, (mc_mean, mc_var, mc_skew, mc_kurt))):
            raise NumericError(f"draws[{i}]: sample moments of {mc.n_paths} paths are not finite")
        rows.append([g, v, m, mom.mean, mc_mean, mom.variance, mc_var,
                     mom.skewness, mc_skew, mom.kurtosis_excess, mc_kurt])
    return [_write_csv(out / "pivot_moments.csv",
                       ["g", "v", "m", "mean_formula", "mean_mc", "var_formula", "var_mc",
                        "skew_formula", "skew_mc", "kurt_excess_formula", "kurt_excess_mc"],
                       rows)]


_PRICING_KEYS = {"n_paths": (int, 100_000, None), "t": (float, 0.0, None),
                 "u": (float, 1.0, None), "rate": (float, 0.0, None), "state": (float, None, None)}
#: each experiment kind: its runner, the sections it cannot run without, and its scalar
#: keys as key -> (type, default, least value), besides the ``seed`` every kind takes.  A
#: least value is stated only where no object the plan builds from the key checks its range.
_KINDS = {
    "simulate": (_run_simulate, ("driver", "grid"), {"n_paths": (int, _REQUIRED, 1)}),
    "dominance": (_run_dominance, ("map1", "map2"), {"t": (float, 1.0, drv.MIN_TIME)}),
    "price": (_run_price, ("driver", "map", "payoff"), {**_PRICING_KEYS, "risk_index": (int, 0, 0)}),
    "tariff": (_run_tariff, (), {**_PRICING_KEYS, "unit_cost": (float, 1.0, None)}),
    "reproduce-crossing-table": (_run_crossing_table, (), {}),
    "reproduce-crossing-curves": (_run_crossing_curves, (), {"g_gaps": (
        list, [0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], None)}),
    "reproduce-sosd-split-g": (_run_sosd_split_g, (), {
        "g1_below": (float, 0.8, None), "g1_above": (float, 0.2, None), "g2": (float, 0.3, None)}),
    "reproduce-pivot-moments": (_run_pivot_moments, (), {"n_paths": (int, 1_000_000, None)}),
}
#: the keys of each entry of a tariff's ``exporters`` and of a pivot-moments ``draws``
_ENTRY_KEYS = {
    "exporters": {"name": (str, None, None), "gamma": (float, 0.0, None),
                  "g": (float, _REQUIRED, None)},
    "draws": {"a": (float, 0.0, None), "b": (float, 1.0, None), "g": (float, _REQUIRED, None),
              "v": (float, _REQUIRED, None), "m": (float, _REQUIRED, None)},
}
#: every experiment kind, and the names that the ``reproduce`` subcommand takes
KINDS = tuple(_KINDS)
REPRODUCE_KINDS = tuple(k.removeprefix("reproduce-") for k in KINDS if k.startswith("reproduce-"))


def run(cfg: dict, out_dir: str = "out") -> list[Path]:
    """Plan then run one experiment; returns the artifact paths."""
    diags, built = _plan(cfg)
    if diags:
        raise ConfigError("; ".join(str(d) for d in diags))
    return _KINDS[cfg["kind"]][0](built, Path(out_dir))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quantproc",
                                description="quantile-process experiments from a config file")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=False, help="YAML experiment config")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    for name in [k for k in KINDS if not k.startswith("reproduce-")] + ["validate"]:
        sub.add_parser(name, parents=[common])
    sub.add_parser("reproduce", parents=[common]).add_argument("name", choices=REPRODUCE_KINDS)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.command == "reproduce":
            cfg["kind"] = f"reproduce-{args.name}"
        elif cfg.setdefault("kind", args.command) != args.command and args.command != "validate":
            raise ConfigError(
                f"config kind {cfg['kind']!r} does not match subcommand {args.command!r}")
        if args.seed is not None:
            cfg["seed"] = args.seed
        diags, built = _plan(cfg)
        for d in diags:
            print(str(d), file=sys.stdout if args.command == "validate" else sys.stderr)
        if diags:
            return EXIT_VALIDATION
        if args.command == "validate":
            print("config is valid")
            return EXIT_OK
        print(f"stage: running {cfg['kind']}")
        for a in _KINDS[cfg["kind"]][0](built, Path(args.out)):
            print(f"stage: wrote {a}")
        return EXIT_OK
    except (ConfigError, RequestError, ParameterError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, SimulationError, MappingError, CapabilityError) as exc:
        print(f"numeric failure in {cfg.get('kind')}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
