"""Digest the canonical CLI reports of one source tree, for byte-identity checks.

    python3 tools/report_digests.py ROOT > digests.json

ROOT is a checkout of this repository: its ``src`` and ``perfbench``
directories are imported, so two checkouts (say a parent commit and a
change) can be compared with ``diff`` on the two outputs. Every run goes
through ``poisson_ortho.cli.main`` in this process with ``--format json``:

* each builtin scenario under each scheme, at ``--fd-step`` 1e-5 and 1e-3;
* the benchmark's random configs (``perfbench/workloads.random_configs``)
  of seeds 1 to 10, each under each scheme.

The output is one JSON object, ``{run: [exit code, SHA-256 of stdout,
stderr]}``. Each run starts with fresh warning filters, so a numpy
warning is printed as often as a separate CLI process would print it.
The script writes the random configs to a temporary directory and
changes nothing under ROOT.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

SEEDS = range(1, 11)
STEPS = ("1e-05", "0.001")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: report_digests.py ROOT", file=sys.stderr)
        return 3
    root = os.path.abspath(argv[0])
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from poisson_ortho import cli
    from poisson_ortho.geometry import SCHEME_NAMES
    from poisson_ortho.scenarios import BUILTIN_SCENARIOS
    from workloads import random_configs

    def check(args):
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("default")
            code = cli.main(["check", *args, "--format", "json"])
        return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                err.getvalue()]

    results = {}
    for name in BUILTIN_SCENARIOS:
        for scheme in SCHEME_NAMES:
            for step in STEPS:
                results[f"{name} {scheme} {step}"] = check(
                    [name, "--scheme", scheme, "--fd-step", step])
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths, so a message that names the file reads the same
        # whichever directory the configs were written to
        previous = os.getcwd()
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                for doc in random_configs(seed):
                    path = f"seed{seed}-{doc['name']}.json"
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                    for scheme in SCHEME_NAMES:
                        results[f"{path} {scheme}"] = check([path, "--scheme", scheme])
        finally:
            os.chdir(previous)
    print(json.dumps(results, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
