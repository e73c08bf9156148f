"""The builtin reports and a few random-metric reports, pinned byte for byte.

Each digest is the SHA-256 of ``RunReport.json_text()`` for one scenario
under one derivative scheme: a builtin with its default grid and tolerance,
or a random-metric config file. A refactor that claims identical reports
keeps every digest; a change that moves digits on purpose updates the table
and says so. The stencilled runs are also held to the runs that difference
every input along every axis, with the inputs' reads unknown.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from poisson_ortho.context import ChartContext
from poisson_ortho.geometry import SCHEME_NAMES, DerivativeScheme, TensorField
from poisson_ortho.metric import MetricField
from poisson_ortho.poisson import PoissonStructure
from poisson_ortho.scenarios import BUILTIN_SCENARIOS, load_scenario, run
from random_metrics import random_metric_entries

DIGESTS = {
    ("euclid4", "symbolic"):
        "5a855a5aa219f984e149799a10b661ea04ffb679500898bb2cb16d58ca559870",
    ("euclid4", "central-4"):
        "cf2a451b5d2e1bd55f6e59649bbd1d6e9b8a95e838730df7c5e73603f4bae5c7",
    ("euclid4", "central-2"):
        "a9f2a1dc93b1d11f41b830021efdc2a8485cebf755bb44e848d41d85a71236eb",
    ("model4d-atan", "symbolic"):
        "04317321a6c4e4f226865e6eba3a8360161a084e863444f9d94021ceffdba7c3",
    ("model4d-atan", "central-4"):
        "33f03498aa017c3cd6e5606cb82331b4c46e90089cbf32232056738494dd8e41",
    ("model4d-atan", "central-2"):
        "f0fc0098d47fc5d7fdf1735189f97d861ad8ef1019a54b89c821c751b2c7446e",
    ("blockdiag4", "symbolic"):
        "b9237104aa2538d7e23622978f94ced29d772570a4f2ebdef4cdc7ee7774a91a",
    ("blockdiag4", "central-4"):
        "f273e18b45fbac5f47cfa9a00fdeb11a0297c9911e14732118e34d5c8297a1c9",
    ("blockdiag4", "central-2"):
        "455edccfd1e092f0ec9c40c6521bc67c9125f58a3107b508f72180ae046dfd70",
    ("so3", "symbolic"):
        "334991d4616620fc1dfd9ced46ef8b98e3f793ee95ad6752cf96b99256bb79c1",
    ("so3", "central-4"):
        "818d72d7f3802ead530fe763da4760c1edf38c85b33f159ffb34d2e354b5809d",
    ("so3", "central-2"):
        "6563d2984ae1dc9649f27edc1a471a3f2f26a3048e519cd627cc914fed2f0717",
    ("sl2r", "symbolic"):
        "8eee248a99ee166abab4ec4f58e303bff2726987555afb616ef63f3cce11cd6f",
    ("sl2r", "central-4"):
        "daa7534a64187a9233bbc803b9de27ffd4971f1eefd32fddd21310f927eb52b4",
    ("sl2r", "central-2"):
        "528ab3976127184fdfe0ec5035fa2e3f5be8cb7671f4662a852e3ac5fbb0aa5b",
    ("so3xso3", "symbolic"):
        "2b5c694a07233872e998dba92291cd3cce6499626c911d9c23a24a2a253efe07",
    ("so3xso3", "central-4"):
        "f7fa475d2e0380469b4c8a72d4f519b23935a439348a33c8c5277e696fb040b6",
    ("so3xso3", "central-2"):
        "0b8baf5fed3d47ae6d9d2f7920b8bb354fca172f42ea1c2f92d2bc21f2ec3eca",
    ("se3", "symbolic"):
        "431939b681c53dd10c574329ffa34f33c582451c9f2fdb592460a34e9ee5cc85",
    ("se3", "central-4"):
        "d6cb40af8e1174c3d170fc20224d62e348fdc89821bd4090d9c57313b712b79c",
    ("se3", "central-2"):
        "6d16721ab55d2b450d1c570e4f93d7bdd545d9ce02455d44ceb3d84d18677d25",
}

# random transversal-leaf metrics (every g_{It} nonzero) with non-constant
# coframe scales: they reach the projected-frame brackets with terms the
# builtins leave at zero
RANDOM_DIGESTS = {
    (1, "symbolic"):
        "59ab96fd5ed726e32784ade4b01dae640fb0379e426ec2b2941ac81877ad8fff",
    (1, "central-4"):
        "ed0dbd2c5abc0f0838547dae23dde508d55e3d36e61ae2a06a9933504fe37f78",
    (1, "central-2"):
        "c4395c5a5709449c48687c7bab980085247b460e9415a9f1da658cbf4beb5de9",
    (2, "symbolic"):
        "1036620d583b7d544b6f086af6448b07daccc4bf39920abf8e02c31560796a42",
    (2, "central-4"):
        "565c2e3d12600876aeca628dde1f4976483b68495e6a29c1cce8d7bbc6b442b4",
    (2, "central-2"):
        "1434a3d95049314ae101635d526554f310ea7b8440be670d09892db5ad4ef041",
    (3, "symbolic"):
        "65ad6a02508aca3b8ed1ad349df9bbfd4e573a3cb18080ba7c87cb5d2e0423cf",
    (3, "central-4"):
        "fc49c7bfa5e77623dd631baa41b9fb730a5b74074b90c9c1d61edea77c2cef27",
    (3, "central-2"):
        "7d3fd1d9355271b455a3cbf4bcb10561e7e9f989c3a4c2a70a2d68e44ba55218",
    (4, "symbolic"):
        "99d9d32d2637afc74758805548a5a68ba9025e98cf04bc9c00513f4bd57ada5d",
    (4, "central-4"):
        "742ffd00fc16766ddbe399d906bf5240fcc55f3f31c5ba6541d97dc3c698b851",
    (4, "central-2"):
        "8b4af8667914fb58647c0e9a4ecf4faf350a4c43722352eeb549a26ee303da7c",
    (5, "symbolic"):
        "85d79b5850da79519ce9413137711011a41859a0ec219a758ae603ca68af6f25",
    (5, "central-4"):
        "f1bb0fa79c921c2dc5cd9fe56c81ce745b7430ac9af7bbcda5aa97711ebf69cb",
    (5, "central-2"):
        "4d5f224e6ad9f4297a522f49b4df33316471968a3bba8a72583c506fed92855f",
    (6, "symbolic"):
        "1e273b2e7fbd630ba4eae0b13bd3824bda3ffa3b027d7e25d4a4258d6c8f27c2",
    (6, "central-4"):
        "61e202341ca132bdfd493a643a6686fdd56083f09feb2b2c2f97d78192048b51",
    (6, "central-2"):
        "1109b2641dd4a1bcd03e11bfa16f1f2fd5dfd640b4ed6b7ce9ff0d4dda3ab390",
}


def random_leaf_config(seed: int, scheme: str) -> dict:
    return {
        "name": f"random-leaf-{seed}",
        "dim": 4,
        "poisson": {"kind": "canonical", "rank": 2},
        "casimirs": ["x1", "x2"],
        "coframe_scales": ["1 + x3^2/4", "2 - x1*x4/8"],
        "metric": {"kind": "matrix", "entries": random_metric_entries(
            np.random.default_rng(seed), transversal_leaf=True)},
        "grid": {"center": [0.0] * 4, "half_width": 0.5, "points_per_axis": 3},
        "scheme": {"kind": scheme},
    }


def digest(report) -> str:
    return hashlib.sha256(report.json_text().encode("utf-8")).hexdigest()


def test_every_builtin_and_scheme_is_pinned():
    assert set(DIGESTS) == {(name, scheme) for name in BUILTIN_SCENARIOS
                            for scheme in SCHEME_NAMES}


@pytest.mark.parametrize("name, scheme", sorted(DIGESTS))
def test_builtin_report_is_byte_identical(name, scheme):
    config = load_scenario(name)
    # the scheme override as the CLI's --scheme applies it
    config = replace(config, scheme=DerivativeScheme(
        kind=SCHEME_NAMES[scheme], step=config.scheme.step))
    assert digest(run(config)) == DIGESTS[name, scheme]


@pytest.mark.parametrize("seed, scheme", sorted(RANDOM_DIGESTS))
def test_random_metric_report_is_byte_identical(tmp_path, seed, scheme):
    path = tmp_path / "random-leaf.json"
    path.write_text(json.dumps(random_leaf_config(seed, scheme)))
    assert digest(run(load_scenario(str(path)))) == RANDOM_DIGESTS[seed, scheme]


def closure(field):
    """The field as a numeric closure: its reads are unknown, so a
    ``central-*`` scheme stencils it along every axis."""
    return TensorField(field.dim, field.variance, field.components)


def with_closures(config):
    """The config with every input field (g, P, Casimirs, scales) a closure."""
    structure = config.structure
    scales = ChartContext(structure, config.metric, config.grid.sample()).scales
    return replace(
        config,
        structure=PoissonStructure(
            bivector=closure(structure.bivector),
            casimirs=[closure(c) for c in structure.casimirs],
            expected_rank=structure.expected_rank,
            coframe_scales=None if scales is None else [closure(c) for c in scales]),
        metric=MetricField(closure(config.metric.field),
                           config.metric.contravariant_constant))


def condition_reports(report) -> dict:
    """Every condition report of a run by id: validation, then verdict."""
    v = report.validation
    reports = [v.antisymmetry, v.jacobi, v.casimir_annihilation]
    if report.verdict is not None:
        reports += report.verdict.conditions
    return {rep.condition: rep for rep in reports}


STENCILLED = ([(name, scheme) for name in BUILTIN_SCENARIOS
               for scheme in ("central-2", "central-4")]
              + [(seed, scheme) for seed in (1, 4) for scheme in ("central-2", "central-4")])


@pytest.mark.parametrize("source, scheme", STENCILLED)
def test_skipping_unread_axes_keeps_the_full_stencils_verdict(tmp_path, source, scheme):
    # an unread axis's partial is an exact zero where the full stencil gives
    # rounding noise, so only residuals at noise level may move
    if isinstance(source, str):
        config = load_scenario(source)
        config = replace(config, scheme=DerivativeScheme(
            kind=SCHEME_NAMES[scheme], step=config.scheme.step))
    else:
        path = tmp_path / "random-leaf.json"
        path.write_text(json.dumps(random_leaf_config(source, scheme)))
        config = load_scenario(str(path))
    skipped, full = run(config), run(with_closures(config))
    assert skipped.exit_code == full.exit_code
    if full.verdict is not None:
        assert skipped.verdict.integrable == full.verdict.integrable
        assert skipped.verdict.consistent == full.verdict.consistent
        assert ([d["kind"] for d in skipped.verdict.disagreements]
                == [d["kind"] for d in full.verdict.disagreements])
    got, want = condition_reports(skipped), condition_reports(full)
    assert got.keys() == want.keys()
    for cid, rep in want.items():
        assert got[cid].label == rep.label
        assert np.allclose(got[cid].residuals, rep.residuals, rtol=0.0, atol=1e-6)
    if full.extras is not None and "integral_surface" in full.extras:
        assert skipped.extras["integral_surface"]["max_residual"] == pytest.approx(
            full.extras["integral_surface"]["max_residual"], rel=0.0, abs=1e-6)
