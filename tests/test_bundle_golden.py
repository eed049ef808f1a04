"""Golden problem construction: the phantom and the bytes of written bundles.

A refactor of the generators, of the phantom or of the bundle writer must
leave these unchanged.  Each bundle is written by `gen` through cli.main
and every file in it is pinned by the sha256 of its bytes; the phantom is
pinned by the sha256 of its float64 bytes.  The expected values were
recorded before the consistent generator moved into `problems` and the
phantom was evaluated on the whole pixel grid at once.  The inconsistent
and tomo x_star.txt and r.txt were recorded again when those generators
began to store the x they built b from as x_star (b itself is unchanged).
When every generator began to project its residual draw off range(A) once,
the wide b.txt, r.txt and x_star.txt and the tomo b.txt and r.txt were
recorded again (their b moved in its last bits), and so were the
consistent r.txt and x_star.txt, which now hold the planted x and r = 0.
The inconsistent and tomo b.txt and r.txt were recorded again when a tall
full-rank A began to project its draw through A^T A, not the SVD (b moved
in its last bits; every x_star.txt kept its bytes).
The NUMERIC files are pinned in one GOLDEN table per BLAS key
(tests/conftest.py).
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest
from conftest import HASWELL_KEY, SKYLAKEX_KEY, pinned

from rekbench.cli import main
from rekbench.problems import shepp_logan

BUNDLES = {
    "consistent": ("gaussian", "--m", "40", "--n", "10", "--seed", "1"),
    "inconsistent": ("gaussian", "--m", "40", "--n", "10", "--seed", "1", "--inconsistent"),
    "wide": ("gaussian", "--m", "15", "--n", "40", "--seed", "3", "--inconsistent"),
    "tomo": ("tomo", "--side", "8", "--angles", "12", "--detectors", "12", "--seed", "1"),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


# The files whose numbers pass through the BLAS kernels: b = A x (+ noise),
# and the least-squares x_star and r.
NUMERIC = ("b.txt", "r.txt", "x_star.txt")

# (what, name): first 16 hex digits of the sha256 of its bytes, the same
# under every BLAS
FIXED = {
    ("phantom", "4"): "f28f31fa5e5debcc",
    ("phantom", "8"): "eaae03c2aca181eb",
    ("phantom", "16"): "27ed40b943b80560",
    ("phantom", "17"): "4a68263e8033122a",
    ("phantom", "33"): "514995f554477772",
    ("consistent", "A.mtx"): "6a0db226a24f938d",
    ("consistent", "meta.json"): "ffb4c30478cc4995",
    ("inconsistent", "A.mtx"): "6a0db226a24f938d",
    ("inconsistent", "meta.json"): "2537fe38670eee03",
    ("wide", "A.mtx"): "bf640a910bd6d19a",
    ("wide", "meta.json"): "9b366d21db43a490",
    ("tomo", "A.mtx"): "f3b9daa2e9a350d1",
    ("tomo", "meta.json"): "ec73dee786bf2b34",
}

# (bundle, name) of a NUMERIC file: as in FIXED, under the SkylakeX kernels
SKYLAKEX = {
    ("consistent", "b.txt"): "bc5d563416acb06c",
    ("consistent", "r.txt"): "7587b4e86fbac57e",
    ("consistent", "x_star.txt"): "290409b676147446",
    ("inconsistent", "b.txt"): "33e9b7aabfc50b14",
    ("inconsistent", "r.txt"): "d91e86c10d5a1576",
    ("inconsistent", "x_star.txt"): "6ed782398fae300d",
    ("wide", "b.txt"): "e331aa1a43e14564",
    ("wide", "r.txt"): "6684f9a49644c554",
    ("wide", "x_star.txt"): "6467ebe242f642c3",
    ("tomo", "b.txt"): "034c0afd08b48fa2",
    ("tomo", "r.txt"): "48ffe916453544d4",
    ("tomo", "x_star.txt"): "d596bf94fc317b20",
}

# The same under the Haswell kernels
HASWELL = {
    ("consistent", "b.txt"): "bc5d563416acb06c",
    ("consistent", "r.txt"): "7587b4e86fbac57e",
    ("consistent", "x_star.txt"): "290409b676147446",
    ("inconsistent", "b.txt"): "f18e1b878192ba5a",
    ("inconsistent", "r.txt"): "3398c4901ed1d15c",
    ("inconsistent", "x_star.txt"): "6ed782398fae300d",
    ("wide", "b.txt"): "33c46dc2e01bdfd4",
    ("wide", "r.txt"): "13d13616399606d2",
    ("wide", "x_star.txt"): "b59b331439c417b6",
    ("tomo", "b.txt"): "a483555166b9ff69",
    ("tomo", "r.txt"): "99c232fdf1b2923d",
    ("tomo", "x_star.txt"): "d596bf94fc317b20",
}

GOLDEN = {SKYLAKEX_KEY: SKYLAKEX, HASWELL_KEY: HASWELL}


@pytest.mark.parametrize("side", [4, 8, 16, 17, 33])
def test_phantom_is_unchanged(side):
    assert _sha(shepp_logan(side).tobytes()) == FIXED["phantom", str(side)]


def bundle_digests(bundle):
    """{file name: _sha of its bytes} of each file that `gen` writes for BUNDLES[bundle]."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", *BUNDLES[bundle], "--out", tmp]) == 0
        return {path.name: _sha(path.read_bytes()) for path in sorted(Path(tmp).iterdir())}


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_bundle_files_are_unchanged(bundle):
    got = bundle_digests(bundle)
    fixed = {name: h for (what, name), h in FIXED.items() if what == bundle}
    assert {name: h for name, h in got.items() if name not in NUMERIC} == fixed
    numeric = {name: h for (what, name), h in pinned(GOLDEN).items() if what == bundle}
    assert {name: h for name, h in got.items() if name in NUMERIC} == numeric
