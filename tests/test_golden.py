"""Golden artifacts: the SHA-256 of every deterministic CLI artifact.

Covers README's example configs (sim.yaml, price.yaml, dom.yaml), a Poisson
``simulate`` config, and the four ``reproduce`` targets at seed 1.  A change
that moves any of these bytes must say which artifact moved and why, and
update the hash here.

The hashes are tied to the numeric libraries they were taken with, numpy 2.4
and scipy 1.17: another release may round special functions or random draws
differently and move an artifact without any change to quantproc.
"""

import hashlib

import pytest

from quantproc import cli

SIM_YAML = """\
kind: simulate
seed: 42
n_paths: 1000
driver: {kind: InhomogeneousOU, theta: 1.0, mu: 0.2, sigma: 0.8, y0: 0.1}
grid: {times: [0.25, 0.5, 1.0]}
"""

PRICE_YAML = """\
kind: price
seed: 3
n_paths: 200000
u: 1.0
rate: 0.05
driver: {kind: Brownian}
map:
  mode: TrueLaw
  dist: {family: Gaussian, brownian_scaling: true}
  quantile: {family: TukeyG, a: 0.0, b: 1.0, g: 0.5}
payoff: {kind: Layer, a: 1.0, b: 2.0}
"""

DOM_YAML = """\
kind: dominance
seed: 0
map1: {quantile: {family: TukeyGH, a: 0, b: 1, g: 2.0, h: 0.4}}
map2: {quantile: {family: TukeyGH, a: 0, b: 1, g: 0.8, h: 0.05}}
"""

POISSON_YAML = """\
kind: simulate
seed: 7
n_paths: 1000
driver: {kind: InhomogeneousPoisson, intensity: 2.0}
grid: {times: [0.5, 1, 2]}
"""

# name -> (CLI arguments before --out/--config, config text or None, {artifact: sha256})
GOLDEN = {
    "sim": (["simulate"], SIM_YAML, {
        "ensemble.csv": "c887b18dc6180982fb15b9434496e254749a73f721bc0be93d5d28be12099015"}),
    "poisson-sim": (["simulate"], POISSON_YAML, {
        "ensemble.csv": "d8a8e08e80ada535ab9d54beefb402a12258a2c5566663a6523d3310fc3cbeb3"}),
    "price": (["price"], PRICE_YAML, {
        "price.json": "28d1faa142499a9ef633fee12f75ddbc5d7bb0c260a5cb48faa05a9d33ae46a3"}),
    "dom": (["dominance"], DOM_YAML, {
        "dominance.json": "21e73a0756a1e60e5902ccf32c7d4cbe8e1ae6b621c1abda74dd19aa1d92531e",
        "dominance_evidence.csv":
            "d0779b859ef023eddf56807e08dd75d27e3e21f675826897ebd9e6d58f0ac47d"}),
    "crossing-table": (["reproduce", "crossing-table", "--seed", "1"], None, {
        "crossing_table.csv": "9871e78849961559a9d1c9016bb0275952ee235d30fefe4f14371ea7240d70da"}),
    "crossing-curves": (["reproduce", "crossing-curves", "--seed", "1"], None, {
        "crossing_curves.csv":
            "cd6e8aadc8358c18a5d59fc44688f301638daf83193372af0c3d825ae176a3d8"}),
    "sosd-split-g": (["reproduce", "sosd-split-g", "--seed", "1"], None, {
        "sosd_split_g.csv": "68ca37811e408ebe4f30c6856afc9a303797d06a688644c0041ad96d264ed741"}),
    "pivot-moments": (["reproduce", "pivot-moments", "--seed", "1"], None, {
        "pivot_moments.csv": "4d2b02bba89da1a9664b7f482e843f427188546436593badfa41dbf22bae621d"}),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_artifact_hashes(tmp_path, name):
    argv, config, want = GOLDEN[name]
    out = tmp_path / "out"
    argv = argv + ["--out", str(out)]
    if config is not None:
        cfgfile = tmp_path / f"{name}.yaml"
        cfgfile.write_text(config)
        argv += ["--config", str(cfgfile)]
    assert cli.main(argv) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(want)
    for artifact, digest in want.items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact
