"""Golden trajectories: the lines each kind picks, and its solve iterations.

A refactor of selection or of the steps must leave these unchanged.  Each
case hashes the first 300 picks that reach _axis_step, spied as
(is a column axis, first, second) with no second line stored as -1, and
records solve's iters at check_every 10 and the hash of its history (every
check's k, residual norms and rse, as float64 bytes).  The pick and iters
values were recorded before the selection pipeline was unified, so they pin
the pick sequences across it; the history values pin the reported norms
bit for bit.
"""

import hashlib

import numpy as np
import pytest

from rekbench import solvers
from rekbench.problems import gen_gaussian, gen_parallel_beam, make_inconsistent_problem
from rekbench.solvers import SolverKind, SolverState, StopConfig, build_caches, solve, step

PICKS = 300
SEED = 1
CONFIG = StopConfig(fraction=0.5)
# The consistent-only kinds never meet the tolerance on inconsistent b.
SOLVE_CONFIG = StopConfig(check_every=10, max_iters=2000, fraction=0.5)

PROBLEMS = {
    "tall": lambda: make_inconsistent_problem(gen_gaussian(60, 15, SEED), SEED),
    "wide": lambda: make_inconsistent_problem(gen_gaussian(15, 60, SEED), SEED),
    "tomo": lambda: gen_parallel_beam(8, 12, 12, SEED),
}

# (problem, kind): (first 16 hex digits of the pick hash, solve iters)
GOLDEN = {
    ("tall", "REK"): ("e91c3e7f06f367f0", 550),

    ("tall", "TREK_ALT"): ("92a1d8e08ef236bb", 290),

    ("tall", "TREKS"): ("5e1f64dee0675406", 270),

    ("tall", "GREK"): ("91bc2ff65a43fd2a", 170),

    ("tall", "SREK"): ("d1449b7b65e96b07", 170),

    ("tall", "TGREK"): ("97fb27850963100c", 100),

    ("tall", "TSREK"): ("93f214baa689777a", 90),

    ("tall", "TSREKS"): ("4f06034678817a67", 90),

    ("tall", "RK"): ("ec6d17f5f76fbff2", 2000),

    ("tall", "TRKS"): ("e9c4c07c10c2a761", 2000),

    ("tall", "TGRK"): ("ed0afff4c434d293", 2000),

    ("tall", "TSRK"): ("86cd6f758400aeb3", 2000),

    ("tall", "TSRKS"): ("d98b20bf0d20292b", 2000),

    ("tall", "GPROJ"): ("2204c70e6931e6e5", 110),

    ("tall", "SPROJ"): ("2756d9e8d1c6c73b", 110),

    ("wide", "REK"): ("d4d74e0fde8155a0", 460),

    ("wide", "TREK_ALT"): ("ee37c20761d51f8d", 290),

    ("wide", "TREKS"): ("76d71eb0667bd78e", 240),

    ("wide", "GREK"): ("452f879bcb803767", 130),

    ("wide", "SREK"): ("ef3856a833fbeb5c", 160),

    ("wide", "TGREK"): ("ca694e70affce53e", 90),

    ("wide", "TSREK"): ("6208e7b67a185a71", 50),

    ("wide", "TSREKS"): ("cc30106e62e2f572", 90),

    ("wide", "RK"): ("08475b4cd2b1a01a", 360),

    ("wide", "TRKS"): ("e80168a414a9f90c", 160),

    ("wide", "TGRK"): ("02c64afb3aba7759", 70),

    ("wide", "TSRK"): ("5a4d896243976e9f", 60),

    ("wide", "TSRKS"): ("c74f04bbd279d9fe", 60),

    ("wide", "GPROJ"): ("297206e79deddbe0", 2000),

    ("wide", "SPROJ"): ("c54683d950c59da4", 2000),

    ("tomo", "REK"): ("caf018171cca023b", 2000),

    ("tomo", "TREK_ALT"): ("865402ea830756f3", 2000),

    ("tomo", "TREKS"): ("61505478c3239f74", 2000),

    ("tomo", "GREK"): ("5024e2279eb41e4e", 680),

    ("tomo", "SREK"): ("2aca7d6f4b24d05d", 630),

    ("tomo", "TGREK"): ("c3ddd40a3884cb0d", 390),

    ("tomo", "TSREK"): ("7b27821e4a0263b3", 300),

    ("tomo", "TSREKS"): ("e28de96c0af556f4", 460),

    ("tomo", "RK"): ("631056b312922b75", 2000),

    ("tomo", "TRKS"): ("630ba23d766918a8", 2000),

    ("tomo", "TGRK"): ("4f2428ff9c68414a", 2000),

    ("tomo", "TSRK"): ("ab3bb31ef5020f12", 2000),

    ("tomo", "TSRKS"): ("b1763f4cffc3a691", 2000),

    ("tomo", "GPROJ"): ("596d21adbdd1ea11", 210),

    ("tomo", "SPROJ"): ("2d8f860ef1ccfefb", 210),

}

# (problem, kind): first 16 hex digits of the sha256 of solve's history
HISTORY = {
    ("tall", "REK"): "c39c6c346506e860",
    ("tall", "TREK_ALT"): "dc89ff2b68d8794a",
    ("tall", "TREKS"): "d83343d63140bec6",
    ("tall", "GREK"): "89833b3b6fd3005e",
    ("tall", "SREK"): "05f8027cff40c12c",
    ("tall", "TGREK"): "dce377498b6fcf79",
    ("tall", "TSREK"): "099cc2b28bb26d9b",
    ("tall", "TSREKS"): "197440a0af04f0e3",
    ("tall", "RK"): "176e42c8d4e44168",
    ("tall", "TRKS"): "3362c2f85df7aef3",
    ("tall", "TGRK"): "09704317de5f34da",
    ("tall", "TSRK"): "eb515d0db171622c",
    ("tall", "TSRKS"): "b51fdf14ce4edeaf",
    ("tall", "GPROJ"): "8d912be0cb792c06",
    ("tall", "SPROJ"): "17eed54416c2c627",
    ("wide", "REK"): "de23f130fbfcb31a",
    ("wide", "TREK_ALT"): "eb8a5f741cc47b4b",
    ("wide", "TREKS"): "10c8e29b0cb854c9",
    ("wide", "GREK"): "9198e538c31aa97f",
    ("wide", "SREK"): "395bf8a42bb20eb0",
    ("wide", "TGREK"): "3464f8b4ff4317d1",
    ("wide", "TSREK"): "17fe2f8ff17e916e",
    ("wide", "TSREKS"): "77e8ecc8faae274a",
    ("wide", "RK"): "734dd8a3d1f84b5c",
    ("wide", "TRKS"): "81245c67421ae02c",
    ("wide", "TGRK"): "82e03fa478922435",
    ("wide", "TSRK"): "1a9cce39631a28a7",
    ("wide", "TSRKS"): "c53a937fb981962c",
    ("wide", "GPROJ"): "7b4004a5d299d7fd",
    ("wide", "SPROJ"): "206d9269ce446e48",
    ("tomo", "REK"): "d0abaeef3838aaac",
    ("tomo", "TREK_ALT"): "3aa8e802aeaccc93",
    ("tomo", "TREKS"): "828febe073d0be2c",
    ("tomo", "GREK"): "b2f7220684f7b4f4",
    ("tomo", "SREK"): "5886ac40f56326d3",
    ("tomo", "TGREK"): "73a2bd33d8e0bda2",
    ("tomo", "TSREK"): "43fcdd4e96ed4099",
    ("tomo", "TSREKS"): "80bce6ba4016cbc2",
    ("tomo", "RK"): "9788bddd19354814",
    ("tomo", "TRKS"): "6f5e4014b958d70d",
    ("tomo", "TGRK"): "c9355905d42876d9",
    ("tomo", "TSRK"): "5c3d1e1c1c98d13b",
    ("tomo", "TSRKS"): "05d5aebdd6800018",
    ("tomo", "GPROJ"): "15f26df592f09ead",
    ("tomo", "SPROJ"): "96e50e9b5467c0c2",
}


def _history_hash(rec):
    data = np.asarray(rec.history, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _pick_hash(monkeypatch, kind, problem):
    caches = build_caches(problem.A, kind)
    picks = []
    original = solvers._axis_step

    def spy(state, problem, caches, axis, idx):
        picks.append((not axis.row, idx[0], idx[1] if len(idx) == 2 else -1))
        return original(state, problem, caches, axis, idx)

    monkeypatch.setattr(solvers, "_axis_step", spy)
    state = SolverState.initial(kind, problem, seed=SEED)
    for _ in range(PICKS):
        if len(picks) >= PICKS:
            break
        step(state, problem, caches, CONFIG)
    monkeypatch.undo()
    data = np.asarray(picks[:PICKS], dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("kind", list(SolverKind))
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_golden_trajectory(monkeypatch, name, kind):
    problem = PROBLEMS[name]()
    rec = solve(kind, problem, SOLVE_CONFIG, seed=SEED)
    assert (_pick_hash(monkeypatch, kind, problem), rec.iters) == GOLDEN[name, kind.value]
    assert _history_hash(rec) == HISTORY[name, kind.value]
