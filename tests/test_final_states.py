"""Golden final states: the bits of x and z, after steps and after solve.

tests/test_trajectories.py pins the lines each kind picks and its solve
iterations; this pins the iterates themselves, so a change to the step
arithmetic that keeps the picks but moves a rounding shows here.  Each
case hashes the bytes of x and z after 300 step calls with CONFIG, and
after solve with SOLVE_CONFIG.  The expected values were recorded before
the shared step was made lean, so they pin its trajectories bit for bit.
"""

import hashlib

import pytest
from test_trajectories import CONFIG, PROBLEMS, SEED, SOLVE_CONFIG

from rekbench.solvers import SolverKind, SolverState, build_caches, solve, step

STEPS = 300


def _digest(state):
    """First 16 hex digits of the sha256 of x's bytes, then z's (absent: empty)."""
    h = hashlib.sha256()
    for tag, v in ((b"x", state.x), (b"z", state.z)):
        h.update(tag)
        if v is not None:
            h.update(v.tobytes())
    return h.hexdigest()[:16]


def _after_steps(kind, problem):
    caches = build_caches(problem.A, kind)
    state = SolverState.initial(kind, problem, seed=SEED)
    for _ in range(STEPS):
        step(state, problem, caches, CONFIG)
    return _digest(state)


def _after_solve(monkeypatch, kind, problem):
    """solve returns no iterate, so its state is caught as it is created."""
    states = []
    original = SolverState.initial.__func__

    def initial(cls, *args, **kwargs):
        states.append(original(cls, *args, **kwargs))
        return states[-1]

    monkeypatch.setattr(SolverState, "initial", classmethod(initial))
    solve(kind, problem, SOLVE_CONFIG, seed=SEED)
    monkeypatch.undo()
    (state,) = states
    return _digest(state)


# (problem, kind): (digest after STEPS steps, digest after solve)
GOLDEN = {
    ("tall", "REK"): ("f28d4737c80a1509", "c180eb7ff4d103dc"),
    ("tall", "TREK_ALT"): ("6e4f49f017d41849", "bf3064c22e3cd5a5"),
    ("tall", "TREKS"): ("bbf72c3a830c0e3c", "91cb08208bd96899"),
    ("tall", "GREK"): ("62e2d73b1bb51ecd", "8181ab788f5d31b3"),
    ("tall", "SREK"): ("65d54992dece2378", "ab3d45c0813d1c3d"),
    ("tall", "TGREK"): ("4956ddffe38ac4b1", "07c064def0d50549"),
    ("tall", "TSREK"): ("691134089058d18e", "022b56d181cd9766"),
    ("tall", "TSREKS"): ("929ed3bbae6ccc1f", "28b4e3a8ca1f73a1"),
    ("tall", "RK"): ("1c4555c845cbfcb4", "6c1355184d9b9e66"),
    ("tall", "TRKS"): ("50307a6f2a64e856", "824959e95f061c37"),
    ("tall", "TGRK"): ("a947f037a8ea5db8", "d90e81e9d51a3082"),
    ("tall", "TSRK"): ("d4b22bbecbeb2bcb", "f43a8c7d2862a7d7"),
    ("tall", "TSRKS"): ("f86e4abf7415e8a3", "ba4ec9f3ef6c1255"),
    ("tall", "GPROJ"): ("8cb18e25e43b38eb", "cb4a4f1b9d0431cb"),
    ("tall", "SPROJ"): ("7e206d23738c8bcf", "3ae5eb5a2975491a"),
    ("wide", "REK"): ("ec122cab1d76b62e", "0e82bfe193b8e600"),
    ("wide", "TREK_ALT"): ("ddd7f152f2dabb0c", "4811f808ab43d43b"),
    ("wide", "TREKS"): ("614a601606569696", "7e8e43e1091d453e"),
    ("wide", "GREK"): ("51410e645446fd60", "fcf5436bcdecac8b"),
    ("wide", "SREK"): ("ce692d05840d2eed", "69279667e6283a26"),
    ("wide", "TGREK"): ("36b0277ec8b68eb1", "3a7195f2f030684a"),
    ("wide", "TSREK"): ("42e79d8c2c6f10c3", "f1327af7dd80671b"),
    ("wide", "TSREKS"): ("d6df844b2814f179", "6a0a2577e0591cf9"),
    ("wide", "RK"): ("25a9bf25fd1bc6cf", "a49bb62f99b0e22f"),
    ("wide", "TRKS"): ("0e1557cb4673f701", "84874836709eb030"),
    ("wide", "TGRK"): ("798e0eba187fef8e", "a97babfe7877fd40"),
    ("wide", "TSRK"): ("358bd3863504c997", "3dfefd9a4a2aec98"),
    ("wide", "TSRKS"): ("91fef1e593ba3cec", "a293cebc0d7727e3"),
    ("wide", "GPROJ"): ("b327d7158a4d62f6", "3c8397d2f1b27cd5"),
    ("wide", "SPROJ"): ("88ab5d5fc709dc58", "fc30c7a16ddfd250"),
    ("tomo", "REK"): ("9eca788da741d5f8", "144837ac443ac0ae"),
    ("tomo", "TREK_ALT"): ("c6d7ac738fd333f5", "f9f51b5eb23fadd4"),
    ("tomo", "TREKS"): ("d850d783120a2870", "c184f12a497c69f0"),
    ("tomo", "GREK"): ("b5f5351a4c9cc7a4", "aeaaa61ed1a9ba51"),
    ("tomo", "SREK"): ("875fde600d13d40f", "34b8fd5509294380"),
    ("tomo", "TGREK"): ("40e129b57ceb6e9a", "7167e0cab35e50a6"),
    ("tomo", "TSREK"): ("a927e052aae768b3", "a639e1cab9e464af"),
    ("tomo", "TSREKS"): ("f9a4691a2d904a65", "3118700ed00ea184"),
    ("tomo", "RK"): ("0a1b7036d926d7e9", "aa315cc041ccce5d"),
    ("tomo", "TRKS"): ("17cefb973ebe8c7e", "2c3242e52e19a7e9"),
    ("tomo", "TGRK"): ("44f86d0300e58936", "e177caf5e00dc8a1"),
    ("tomo", "TSRK"): ("fe15839a9dfc1ca8", "28a2b26d32af2682"),
    ("tomo", "TSRKS"): ("275d15575498f5bf", "e3409bf8d24fcf3f"),
    ("tomo", "GPROJ"): ("33d63e530e8b3291", "88f5ca0eb4d5276d"),
    ("tomo", "SPROJ"): ("9252652371d0e8b1", "4a0b0d338a9e85c2"),
}


@pytest.mark.parametrize("kind", list(SolverKind))
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_golden_final_state(monkeypatch, name, kind):
    problem = PROBLEMS[name]()
    got = (_after_steps(kind, problem), _after_solve(monkeypatch, kind, problem))
    assert got == GOLDEN[name, kind.value]
