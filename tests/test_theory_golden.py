"""Golden theory output: the exact JSON of `constants` and `verify`.

A refactor of the constants or of the rate formulas must leave these
unchanged.  Each case generates a bundle with `gen`, runs one command on
it through cli.main and pins the exit code and the sha256 of stdout.  The
expected values were recorded before the rates were rewritten as
functions of the constants alone, so they pin every key, value and key
order across it.  tall-verify and tomo-verify were recorded again when
their generators began to store the x they built b from as x_star: the
ratios measured against x_star moved by about 1e-15 relative.  GOLDEN holds
one table per BLAS key (tests/conftest.py).
"""

import hashlib

import pytest
from conftest import HASWELL_KEY, SKYLAKEX_KEY, pinned

from rekbench.cli import main

BUNDLES = {
    "tall": ("gaussian", "--m", "40", "--n", "20", "--seed", "42", "--inconsistent"),
    "wide": ("gaussian", "--m", "15", "--n", "40", "--seed", "3", "--inconsistent"),
    "consistent": ("gaussian", "--m", "30", "--n", "10", "--seed", "5"),
    "tomo": ("tomo", "--side", "8", "--angles", "12", "--detectors", "12", "--seed", "1"),
}

COMMANDS = {
    "constants": ("constants",),
    "verify": ("verify", "--trials", "20", "--steps", "10"),
    "sample": ("constants", "--sample", "5"),
}

# (bundle, command): (exit code, first 16 hex digits of the stdout sha256),
# under the SkylakeX kernels
SKYLAKEX = {
    ("tall", "constants"): (0, "fb8d0fa01d273b6e"),
    ("wide", "constants"): (0, "a68f7709d78aa8fc"),
    ("consistent", "constants"): (0, "fe5af3b3fe0518f1"),
    ("tomo", "constants"): (0, "d46b9a7141ee629c"),
    ("tall", "verify"): (0, "b0265e813078c0ad"),
    ("wide", "verify"): (0, "8cfefeed7da76936"),
    ("consistent", "verify"): (0, "6efd337a326f9e91"),
    ("tomo", "verify"): (0, "2ac3a5c24ba9b004"),
    ("tall", "sample"): (0, "38f361bdaf1e05b0"),
}

# The same under the Haswell kernels
HASWELL = {
    ("tall", "constants"): (0, "138e364b34221b59"),
    ("wide", "constants"): (0, "a68f7709d78aa8fc"),
    ("consistent", "constants"): (0, "9580ce573994f912"),
    ("tomo", "constants"): (0, "31ac1a207207f3f7"),
    ("tall", "verify"): (0, "7202b5af08b307e8"),
    ("wide", "verify"): (0, "90a96089f87f6ed0"),
    ("consistent", "verify"): (0, "e9bc044a2acf082b"),
    ("tomo", "verify"): (0, "ce4c6a21ac76f9cb"),
    ("tall", "sample"): (0, "2f0360364696564e"),
}

GOLDEN = {SKYLAKEX_KEY: SKYLAKEX, HASWELL_KEY: HASWELL}


@pytest.mark.parametrize("bundle, command", sorted(SKYLAKEX))
def test_theory_output_is_unchanged(capsys, tmp_path, bundle, command):
    expected = pinned(GOLDEN)[bundle, command]
    path = str(tmp_path / bundle)
    assert main(["gen", *BUNDLES[bundle], "--out", path]) == 0
    capsys.readouterr()
    argv = [*COMMANDS[command], "--problem", path]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert (code, digest) == expected
