"""The builtin reports, pinned byte for byte.

Each digest is the SHA-256 of ``RunReport.json_text()`` for one builtin
scenario under one derivative scheme, with the scenario's default grid and
tolerance. A refactor that claims identical reports keeps every digest; a
change that moves digits on purpose updates the table and says so.
"""

import hashlib
from dataclasses import replace

import pytest

from poisson_ortho.geometry import SCHEME_NAMES, DerivativeScheme
from poisson_ortho.scenarios import BUILTIN_SCENARIOS, load_scenario, run

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


def test_every_builtin_and_scheme_is_pinned():
    assert set(DIGESTS) == {(name, scheme) for name in BUILTIN_SCENARIOS
                            for scheme in SCHEME_NAMES}


@pytest.mark.parametrize("name, scheme", sorted(DIGESTS))
def test_builtin_report_is_byte_identical(name, scheme):
    config = load_scenario(name)
    # the scheme override as the CLI's --scheme applies it
    config = replace(config, scheme=DerivativeScheme(
        kind=SCHEME_NAMES[scheme], step=config.scheme.step))
    text = run(config).json_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name, scheme]
