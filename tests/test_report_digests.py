"""The builtin reports and a few random-metric reports, pinned byte for byte.

Each digest is the SHA-256 of ``RunReport.json_text()`` for one scenario
under one derivative scheme: a builtin with its default grid and tolerance,
or a random-metric config file. A refactor that claims identical reports
keeps every digest; a change that moves digits on purpose updates the table
and says so.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from poisson_ortho.geometry import SCHEME_NAMES, DerivativeScheme
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
        "ad80e2281833c86050579caa527ddc3e9901107cd887ee4a8ecddf03867d0479",
    ("model4d-atan", "central-2"):
        "f0fc0098d47fc5d7fdf1735189f97d861ad8ef1019a54b89c821c751b2c7446e",
    ("blockdiag4", "symbolic"):
        "b9237104aa2538d7e23622978f94ced29d772570a4f2ebdef4cdc7ee7774a91a",
    ("blockdiag4", "central-4"):
        "9572ec266216c75761d8ee20b6dbcc39af75ff2f391d0d7c7c82d585106312df",
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
        "535cf8f209bdd64fe033a0e626f475713589352aaa722a2a08a3027317d500ad",
    ("so3xso3", "central-2"):
        "0b8baf5fed3d47ae6d9d2f7920b8bb354fca172f42ea1c2f92d2bc21f2ec3eca",
    ("se3", "symbolic"):
        "431939b681c53dd10c574329ffa34f33c582451c9f2fdb592460a34e9ee5cc85",
    ("se3", "central-4"):
        "16b477dfb88ecb526736e175d7020956a8a83ea894cae0df1850c464be7f6ec9",
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
        "4732dcda80cf4a378ca3b63931b413520c831aab796f42d81e7b2d0aa8c0fdef",
    (1, "central-2"):
        "73cbe061f36b6fe10f3cb5db19da48edd8d8e314ddcd3fcb3b4d3db92001ecf6",
    (2, "symbolic"):
        "1036620d583b7d544b6f086af6448b07daccc4bf39920abf8e02c31560796a42",
    (2, "central-4"):
        "8b1dee0cb52c26ba191eacb8e38f340b19eb8edad1ef71103e16ac8c62f50a15",
    (2, "central-2"):
        "60ce0d5d8348d81947f4ee5bc09fdc0d37d61799e2b6bd175349fed62f9d6edc",
    (3, "symbolic"):
        "65ad6a02508aca3b8ed1ad349df9bbfd4e573a3cb18080ba7c87cb5d2e0423cf",
    (3, "central-4"):
        "201bb70c77546c48c300e6040de78a7b9643084e50a070b918e894cd41bab051",
    (3, "central-2"):
        "5dfa9dddde666b9263deba9aa1a0a46f5a9cc0c5fbee1a1bfa5eaeb388924832",
    (4, "symbolic"):
        "99d9d32d2637afc74758805548a5a68ba9025e98cf04bc9c00513f4bd57ada5d",
    (4, "central-4"):
        "ce6765419ba8e2f4b95875ec171fa3c7a65627d199fe3193fda04d3b5fc64d53",
    (4, "central-2"):
        "6b778a97fb3211631e750ff6ffc28a1e85b3cb6b0113262aadea1f8694572de7",
    (5, "symbolic"):
        "85d79b5850da79519ce9413137711011a41859a0ec219a758ae603ca68af6f25",
    (5, "central-4"):
        "f232478b7bfc59c8c74ae7b8d971f4acd0fa6d893216150acea06b7dcfcda021",
    (5, "central-2"):
        "a0e9d46207dc2c7e3b16d8b7ad7d3ffb25c121bfff07d8dcfecd8011be11e30b",
    (6, "symbolic"):
        "1e273b2e7fbd630ba4eae0b13bd3824bda3ffa3b027d7e25d4a4258d6c8f27c2",
    (6, "central-4"):
        "376392b2872205d50b1cf5ea8fb74f5d48d278b0d082776756bb62eefde357c5",
    (6, "central-2"):
        "98e4a33b7ae14bd1b0c13612a408b4a86b731e495cbe17cf2a0117c771e1ad53",
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
