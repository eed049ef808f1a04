"""Golden theory output: the exact JSON of `constants` and `verify`.

A refactor of the constants or of the rate formulas must leave these
unchanged.  Each case generates a bundle with `gen`, runs one command on
it through cli.main and pins the exit code and the sha256 of stdout.  The
expected values were recorded before the rates were rewritten as
functions of the constants alone, so they pin every key, value and key
order across it.  tall-verify and tomo-verify were recorded again when
their generators began to store the x they built b from as x_star: the
ratios measured against x_star moved by about 1e-15 relative.  All eight
were recorded again when the "approximate" key left the constants: each
output is the one before with that line removed.  consistent-, wide- and
tomo-verify were recorded again when every generator began to build its
problem by one recipe: the consistent x_star became the planted x, and the
wide and tomo b, projected off range(A) once, moved in their last bits;
every constants output kept its bytes.  tall- and tomo-verify were
recorded again when a tall full-rank A began to project its draw through
A^T A, not the SVD: their b moved in its last bits, and every constants
output kept its bytes.  GOLDEN holds one table per BLAS key
(tests/conftest.py).
"""

import contextlib
import hashlib
import io
import os
import tempfile

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
}

# (bundle, command): (exit code, first 16 hex digits of the stdout sha256),
# under the SkylakeX kernels
SKYLAKEX = {
    ("tall", "constants"): (0, "5836a55aa67c695b"),
    ("wide", "constants"): (0, "bd14102df5a0320f"),
    ("consistent", "constants"): (0, "c0a41df7b20d7934"),
    ("tomo", "constants"): (0, "bec34c4ea6acc90f"),
    ("tall", "verify"): (0, "4ab8ea27aa711fad"),
    ("wide", "verify"): (0, "246271b9ea466625"),
    ("consistent", "verify"): (0, "8599c359ee98f118"),
    ("tomo", "verify"): (0, "fe7a396f29cb59f4"),
}

# The same under the Haswell kernels
HASWELL = {
    ("tall", "constants"): (0, "6455f157d13ff0cd"),
    ("wide", "constants"): (0, "bd14102df5a0320f"),
    ("consistent", "constants"): (0, "41cafeb001642186"),
    ("tomo", "constants"): (0, "fbe0107222fdc09f"),
    ("tall", "verify"): (0, "08a7855fe0406f8b"),
    ("wide", "verify"): (0, "821e5833a1d9c45a"),
    ("consistent", "verify"): (0, "5e9d4f9e5792248e"),
    ("tomo", "verify"): (0, "81e6b519382c3dbe"),
}

GOLDEN = {SKYLAKEX_KEY: SKYLAKEX, HASWELL_KEY: HASWELL}


def theory_output(bundle, command):
    """(exit code, first 16 hex digits of the stdout sha256) of one command: a value of GOLDEN."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, bundle)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", *BUNDLES[bundle], "--out", path]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([*COMMANDS[command], "--problem", path])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


@pytest.mark.parametrize("bundle, command", sorted(SKYLAKEX))
def test_theory_output_is_unchanged(bundle, command):
    expected = pinned(GOLDEN)[bundle, command]
    assert theory_output(bundle, command) == expected
