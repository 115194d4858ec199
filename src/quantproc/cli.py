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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Float cells get 9 significant digits (``format(x, ".9g")``), for meaningful
    golden-file diffs; other cells are ``str``.  Each row is one %-format."""
    lines = [",".join(header)]
    for row in rows:
        fmt = ",".join(["%.9g" if isinstance(c, float) else "%s" for c in row])
        lines.append(fmt % tuple(row))
    path.write_text("\n".join(lines) + "\n")


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


_DRIVERS = (drv.Brownian, drv.InhomogeneousOU, drv.VarianceGamma, drv.GammaProcess,
            drv.InhomogeneousPoisson)
_QUANTILES = (tr.TukeyG, tr.TukeyGH, tr.GaussianLaw)
_DISTS = (tr.GaussianLaw, tr.ShiftedDriverLaw, tr.EmpiricalLaw)
_PAYOFFS = (va.Linear, va.Layer, va.StopLoss, va.PowerUtility, va.TablePayoff)
_COPULAS = (cp.IndependenceCopula, cp.ComonotoneCopula, cp.GaussianCopula, cp.ClaytonCopula,
            cp.GumbelCopula)


def _build(section: str, key: str, classes: tuple, spec: dict):
    """The class in ``classes`` whose ``key`` attribute (kind or family) is
    ``spec[key]``, constructed from the section's other entries."""
    name = spec.get(key)
    by_name = {getattr(cls, key): cls for cls in classes}
    if name not in by_name:
        raise ConfigError(f"unknown {section} {key} {name!r}")
    try:
        return by_name[name](**{k: v for k, v in spec.items() if k != key})
    except TypeError as exc:
        raise ConfigError(f"{section}.{name}: {exc}")


def _build_driver(spec: dict) -> drv.Driver:
    return _build("driver", "kind", _DRIVERS, spec)


def _build_quantile(spec: dict) -> tr.Law:
    if spec.get("family") == "TableDriven":
        params = {k: v for k, v in spec.items() if k != "family"}
        if set(params) == {"csv"}:
            return tr.TableQuantile.from_csv(params["csv"])
        if set(params) == {"u", "z"}:
            return tr.TableQuantile(u_knots=params["u"], z_knots=params["z"])
        raise ConfigError("quantile.TableDriven: give either csv or both u and z")
    return _build("quantile", "family", _QUANTILES, spec)


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
    return _build("dist", "family", _DISTS, spec)


def _build_map(spec: dict, driver: Optional[drv.Driver]) -> tr.CompositeMap:
    mode = {"TrueLaw": tr.MapMode.TRUE_LAW, "FalseLaw": tr.MapMode.FALSE_LAW,
            "Pivot": tr.MapMode.PIVOT}.get(spec.get("mode", "FalseLaw"))
    if mode is None:
        raise ConfigError(f"unknown map mode {spec.get('mode')!r}")
    quantile = _build_quantile(spec.get("quantile", {}))
    # a TrueLaw map without a dist reads the driver's own law when applied
    return tr.CompositeMap(dist=_build_dist(spec.get("dist"), driver), quantile=quantile, mode=mode)


def _build_payoff(spec: dict) -> va.Payoff:
    if spec.get("kind") == "Custom":
        knots = {"y": "y_knots", "v": "v_knots"}
        spec = {knots.get(k, k): v for k, v in spec.items()}
    return _build("payoff", "kind", _PAYOFFS, spec)


#: the config sections that must be mappings when present
_SECTIONS = ("driver", "grid", "map", "map1", "map2", "payoff", "copula")


def _non_mappings(cfg: dict) -> list[str]:
    """Names of the present config entries that should be mappings and are not."""
    entries = {s: cfg[s] for s in _SECTIONS if s in cfg}
    maps = {s: cfg[s] for s in ("map", "map1", "map2") if isinstance(cfg.get(s), dict)}
    entries.update({f"{s}.quantile": m["quantile"] for s, m in maps.items() if "quantile" in m})
    if maps.get("map", {}).get("dist") is not None:  # a null dist means "no distribution spec"
        entries["map.dist"] = maps["map"]["dist"]
    for name in ("exporters", "drivers"):
        for i, item in enumerate(cfg[name] if isinstance(cfg.get(name), list) else []):
            entries[f"{name}[{i}]"] = item
            if name == "exporters" and isinstance(item, dict) and "driver" in item:
                entries[f"{name}[{i}].driver"] = item["driver"]
    return [name for name, value in entries.items() if not isinstance(value, dict)]


#: the sections each experiment kind cannot run without
_NEEDS = {"simulate": ("driver", "grid"), "price": ("driver", "map", "payoff"),
          "dominance": ("map1", "map2")}


def _plan(cfg: dict) -> tuple[list[Diagnostic], dict]:
    """Build and validate, once, every object a run of ``cfg`` reads.

    Returns every violation, each under its field name, and the objects that
    built and validated, keyed by field name (a copula's quantile and composite
    map as ``quantile`` and ``joint_map``); a runner reads only these.
    """
    kind = cfg.get("kind")
    if kind not in KINDS:
        return [Diagnostic("kind", f"must be one of {', '.join(KINDS)}")], {}
    diags = [Diagnostic(name, "must be a mapping") for name in _non_mappings(cfg)]
    if diags:
        return diags, {}
    built: dict = {}

    def build(fieldname: str, make, key: Optional[str] = None) -> None:
        try:
            obj = make()
            if hasattr(obj, "validate"):  # a TimeGrid checks itself when built
                obj.validate()
        except (ConfigError, ParameterError, RequestError, KeyError, ValueError) as exc:
            diags.append(Diagnostic(fieldname, str(exc)))
        else:
            built[key or fieldname] = obj

    if "driver" in cfg:
        build("driver", lambda: _build_driver(cfg["driver"]))
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
            build(key, lambda k=key: _build_quantile(cfg[k]["quantile"]))
    if "payoff" in cfg:
        build("payoff", lambda: _build_payoff(cfg["payoff"]))
    if "copula" in cfg:
        build("copula", lambda: _build("copula", "family", _COPULAS, cfg["copula"]))
        # one driver per copula margin: the drivers list, else the driver in each
        specs = cfg["drivers"] if isinstance(cfg.get("drivers"), list) else []
        for i, spec in enumerate(specs):
            build(f"drivers[{i}]", lambda s=spec: _build_driver(s))
        margins = [built.get(f"drivers[{i}]") for i in range(len(specs))]
        if {"quantile", "copula"} <= built.keys():
            margins = margins or [built.get("driver")] * built["copula"].dim
            if None not in margins:
                build("drivers", lambda: cp.MultiCompositeMap(tuple(margins), built["copula"],
                                                              built["quantile"]), key="joint_map")
    if kind == "simulate":
        n = cfg.get("n_paths", 0)
        if not isinstance(n, int) or n < 1:
            diags.append(Diagnostic("n_paths", "must be a positive integer"))
    for req in _NEEDS.get(kind, ()):
        if req not in cfg:
            diags.append(Diagnostic(req, f"{kind} needs a {req} section"))
    if kind == "price" and cfg.get("t", 0.0) > 0 and "state" not in cfg:
        diags.append(Diagnostic("state", "pricing at t > 0 needs the driver state at t"))
    if kind == "tariff":
        exps = cfg.get("exporters")
        if not isinstance(exps, list) or len(exps) < 2:
            diags.append(Diagnostic("exporters", "tariff needs a list of >= 2 exporters"))
        else:
            for i, ex in enumerate(exps):
                if not 0.0 <= ex.get("gamma", 0.0) <= 1.0:
                    diags.append(Diagnostic(f"exporters[{i}].gamma", "must lie in [0, 1]"))
                if ex.get("g", 0.0) == 0.0:
                    diags.append(Diagnostic(f"exporters[{i}].g", "skew parameter must be nonzero"))
                if "driver" in ex:
                    build(f"exporters[{i}].driver", lambda s=ex["driver"]: _build_driver(s))
    if "drivers" in cfg and not isinstance(cfg["drivers"], list):
        diags.append(Diagnostic("drivers", "must be a list of driver mappings"))
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        diags.append(Diagnostic("seed", "must be an integer"))
    return diags, built


def validate_config(cfg: dict) -> list[Diagnostic]:
    """All violations of the declarative specs, without running anything."""
    return _plan(cfg)[0]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_simulate(cfg: dict, built: dict, out: Path) -> list[Path]:
    grid = built["grid"]
    ens = drv.simulate(built["driver"], grid, int(cfg["n_paths"]), int(cfg["seed"]))
    path = out / "ensemble.csv"
    header = [f"t_{k}" for k in range(len(grid))]
    _write_csv(path, header, ens.paths.tolist())
    return [path]


def _run_dominance(cfg: dict, built: dict, out: Path) -> list[Path]:
    q1, q2 = built["map1"], built["map2"]
    t = float(cfg.get("t", 1.0))
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
    jpath = out / "dominance.json"
    jpath.write_text(json.dumps(report, indent=2, default=float) + "\n")
    cpath = out / "dominance_evidence.csv"
    _write_csv(cpath, ["z", "cdf_diff"],
               [[float(z), float(dd)] for z, dd in zip(fosd.evidence["z"],
                                                       fosd.evidence["cdf_diff"])])
    return [jpath, cpath]


def _run_price(cfg: dict, built: dict, out: Path) -> list[Path]:
    payoff = built["payoff"]
    mc = va.MCSettings(n_paths=int(cfg.get("n_paths", 100_000)), seed=int(cfg["seed"]))
    if "copula" in cfg:
        # multidimensional premium: one driver per copula margin
        mmap = built["joint_map"]
        res = cp.multi_layer_premium(mmap, mmap.margins, int(cfg.get("risk_index", 0)), payoff,
                                     float(cfg.get("t", 0.0)), float(cfg.get("u", 1.0)),
                                     float(cfg.get("rate", 0.0)), mc)
    else:
        req = va.ValuationRequest(risk=built["driver"], map=built["map"], payoff=payoff,
                                  t=float(cfg.get("t", 0.0)), u=float(cfg.get("u", 1.0)),
                                  rate=float(cfg.get("rate", 0.0)), mc=mc,
                                  state=cfg.get("state"))
        res = va.qpvp_price(req)
    path = out / "price.json"
    path.write_text(json.dumps({
        "price": res.price, "std_error": res.std_error,
        "risk_loading": res.risk_loading, "diagnostics": res.diagnostics,
    }, indent=2, default=float) + "\n")
    return [path]


def _run_tariff(cfg: dict, built: dict, out: Path) -> list[Path]:
    # an exporter without a driver of its own reads the config's, else a Brownian one
    shared = built.get("driver", drv.Brownian())
    exporters = [va.Exporter(name=str(ex.get("name", i)), gamma=float(ex.get("gamma", 0.0)),
                             g=float(ex["g"]), driver=built.get(f"exporters[{i}].driver", shared))
                 for i, ex in enumerate(cfg["exporters"])]
    mc = va.MCSettings(n_paths=int(cfg.get("n_paths", 100_000)), seed=int(cfg["seed"]))
    table = va.carbon_tariff_table(exporters, unit_cost=float(cfg.get("unit_cost", 1.0)),
                                   t=float(cfg.get("t", 0.0)), u=float(cfg.get("u", 1.0)),
                                   rate=float(cfg.get("rate", 0.0)), mc=mc,
                                   state=cfg.get("state"))
    path = out / "tariff.csv"
    rows = [[r["name"], float(r["gamma"]), float(r["g"]), float(r["price"]),
             float(r["std_error"])] for r in table["rows"]]
    _write_csv(path, ["name", "gamma", "g", "price", "std_error"], rows)
    note = out / "tariff_checks.json"
    note.write_text(json.dumps({"monotone_in_g": table["monotone_in_g"]}) + "\n")
    return [path, note]


#: canonical skew/kurtosis parameter sets whose crossing levels and dominance
#: domains are pinned by the acceptance suite
CROSSING_TABLE_ROWS = (
    (2.0, 0.8, 0.4, 0.05),
    (3.0, 0.5, 0.2, 0.05),
    (2.0, 0.8, 0.05, 0.4),
    (2.0, 1.5, 0.05, 0.2),
)


def _run_crossing_table(cfg: dict, built: dict, out: Path) -> list[Path]:
    rows = []
    for g1, g2, h1, h2 in CROSSING_TABLE_ROWS:
        q1 = tr.TukeyGH(0.0, 1.0, g1, h1)
        q2 = tr.TukeyGH(0.0, 1.0, g2, h2)
        rep = dom.crossing_report(q1, q2)
        u = rep.u_star if rep.u_star is not None else math.nan
        direction = {1: "1>2", -1: "2>1", 0: "none"}[rep.direction]
        note = rep.notes.replace(",", ";")
        rows.append([float(g1), float(g2), float(h1), float(h2), float(u),
                     float(rep.domain_lower), direction, note])
    path = out / "crossing_table.csv"
    _write_csv(path, ["g1", "g2", "h1", "h2", "u_star", "domain_lower", "direction", "note"],
               rows)
    return [path]


def _run_crossing_curves(cfg: dict, built: dict, out: Path) -> list[Path]:
    g2, h2 = 0.1, 0.05
    h_gaps = (0.2, 0.35, 0.5)
    g_gaps = cfg.get("g_gaps") or [0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5,
                                   2.0, 2.5, 3.0, 3.5, 4.0]
    rows = []
    for dh in h_gaps:
        for dg in g_gaps:
            q1 = tr.TukeyGH(0.0, 1.0, g2 + float(dg), h2 + float(dh))
            q2 = tr.TukeyGH(0.0, 1.0, g2, h2)
            u = dom.crossing_u_star(q1, q2)
            rows.append([float(dh), float(dg), float(u if u is not None else math.nan)])
    path = out / "crossing_curves.csv"
    _write_csv(path, ["h_gap", "g_gap", "u_star"], rows)
    return [path]


def _run_sosd_split_g(cfg: dict, built: dict, out: Path) -> list[Path]:
    g1a = float(cfg.get("g1_below", 0.8))
    g1b = float(cfg.get("g1_above", 0.2))
    g2 = float(cfg.get("g2", 0.3))
    left, right = dom.split_g_sosd_integrals(g1a, g1b, g2)
    F1 = dom.state_dependent_tukey_g_cdf(g1a, g1b)
    q2 = tr.TukeyG(0.0, 1.0, g2)
    F2 = lambda z: q2.cdf(1.0, z)
    fosd = dom.fosd_check(F1, F2, (-1.0 / g2, np.inf))
    sosd = dom.sosd_check(F1, F2, (-1.0 / g2, np.inf))
    path = out / "sosd_split_g.csv"
    _write_csv(path, ["g1_below", "g1_above", "g2", "left_integral", "right_integral",
                      "sosd_inequality_holds", "fosd_order", "sosd_order", "sosd_direction"],
               [[g1a, g1b, g2, float(left), float(right), str(left >= right),
                 str(fosd.order), str(sosd.order), sosd.direction]])
    return [path]


def _run_pivot_moments(cfg: dict, built: dict, out: Path) -> list[Path]:
    seed = int(cfg["seed"])
    n = int(cfg.get("n_paths", 1_000_000))
    draws = cfg.get("draws")
    rng = substream(seed, 31)
    if draws is None:
        draws = [{"g": float(g), "v": float(v), "m": float(m)}
                 for g, v, m in zip(rng.uniform(0.1, 1.0, 5),
                                    rng.uniform(0.5, 2.0, 5),
                                    rng.uniform(-1.0, 1.0, 5))]
    rows = []
    for i, d in enumerate(draws):
        a, b = float(d.get("a", 0.0)), float(d.get("b", 1.0))
        g, v, m = float(d["g"]), float(d["v"]), float(d["m"])
        mom = tr.tukey_g_gaussian_moments(a, b, g, m, v)
        x = substream(seed, 32, i).standard_normal(n)
        z = a + b / g * np.expm1(g * (x - m) / math.sqrt(v))
        mc_mean = float(np.mean(z))
        mc_var = float(np.var(z, ddof=1))
        zc = z - mc_mean
        zc2 = zc * zc   # products, not ``**``: numpy sends powers other than 2 to pow
        mc_skew = float(np.mean(zc2 * zc) / mc_var ** 1.5)
        mc_kurt = float(np.mean(zc2 * zc2) / mc_var ** 2 - 3.0)
        rows.append([g, v, m, mom.mean, mc_mean, mom.variance, mc_var,
                     mom.skewness, mc_skew, mom.kurtosis_excess, mc_kurt])
    path = out / "pivot_moments.csv"
    _write_csv(path, ["g", "v", "m", "mean_formula", "mean_mc", "var_formula", "var_mc",
                      "skew_formula", "skew_mc", "kurt_excess_formula", "kurt_excess_mc"],
               rows)
    return [path]


_RUNNERS = {
    "simulate": _run_simulate,
    "dominance": _run_dominance,
    "price": _run_price,
    "tariff": _run_tariff,
    "reproduce-crossing-table": _run_crossing_table,
    "reproduce-crossing-curves": _run_crossing_curves,
    "reproduce-sosd-split-g": _run_sosd_split_g,
    "reproduce-pivot-moments": _run_pivot_moments,
}
#: every experiment kind, and the names that the ``reproduce`` subcommand takes
KINDS = tuple(_RUNNERS)
REPRODUCE_KINDS = tuple(k.removeprefix("reproduce-") for k in KINDS if k.startswith("reproduce-"))


def _execute(cfg: dict, built: dict, out_dir: str) -> list[Path]:
    """Run a planned experiment (seed 0 unless the config sets one) into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg["kind"]]({"seed": 0, **cfg}, built, out)


def run(cfg: dict, out_dir: str = "out") -> list[Path]:
    """Plan then execute one experiment; returns the artifact paths."""
    diags, built = _plan(cfg)
    if diags:
        raise ConfigError("; ".join(str(d) for d in diags))
    return _execute(cfg, built, out_dir)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quantproc",
                                description="quantile-process experiments from a config file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=False, help="YAML experiment config")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")

    for name in [k for k in KINDS if not k.startswith("reproduce-")] + ["validate"]:
        common(sub.add_parser(name))
    rp = sub.add_parser("reproduce")
    rp.add_argument("name", choices=REPRODUCE_KINDS)
    common(rp)
    return p


def _load_for_command(args) -> dict:
    cfg = load_config(args.config) if args.config else {}
    if args.command == "reproduce":
        cfg["kind"] = f"reproduce-{args.name}"
    else:
        cfg.setdefault("kind", args.command)
        if cfg["kind"] != args.command and args.command != "validate":
            raise ConfigError(
                f"config kind {cfg['kind']!r} does not match subcommand {args.command!r}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_for_command(args)
    except (ConfigError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    diags, built = _plan(cfg)
    for d in diags:
        print(str(d), file=sys.stdout if args.command == "validate" else sys.stderr)
    if diags:
        return EXIT_VALIDATION
    if args.command == "validate":
        print("config is valid")
        return EXIT_OK

    try:
        print(f"stage: running {cfg['kind']}")
        artifacts = _execute(cfg, built, args.out)
        for a in artifacts:
            print(f"stage: wrote {a}")
        return EXIT_OK
    except (ConfigError, RequestError, ParameterError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, SimulationError, MappingError, CapabilityError) as exc:
        print(f"numeric failure in {cfg.get('kind')}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
