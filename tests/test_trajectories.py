"""Golden trajectories: the lines each kind picks, its solve and its iterates.

A refactor of selection or of the steps must leave these unchanged.  Each
case makes two runs.  PICKS step calls with CONFIG give the hash of the
first PICKS picks that reach _axis_step, spied as (is a column axis, first,
second) with no second line stored as -1, and then the digest of x and z.
One solve with SOLVE_CONFIG gives its iters at check_every 10, the hash of
its history (every check's k, residual norms and rse, as float64 bytes) and
the digest of its final x and z.  The picks and iters were recorded before
the selection pipeline was unified and the digests before the shared step
was made lean, so they pin the trajectories across both, bit for bit.
run_case makes a case's two runs once; this file asserts a row's first
three values and tests/test_final_states.py its two digests.  The values
hold only under the BLAS kernels they were recorded with, so GOLDEN holds
one table per BLAS key (tests/conftest.py).
"""

import functools
import hashlib

import numpy as np
import pytest
from conftest import HASWELL_KEY, SKYLAKEX_KEY, pinned

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

# (problem, kind): (pick hash, solve iters, history hash, x/z digest after
# PICKS steps, x/z digest after solve), each hash and digest as _sha16 gives
# it, under the SkylakeX kernels
SKYLAKEX = {
    ("tall", "REK"): ("e91c3e7f06f367f0", 550, "c39c6c346506e860", "f28d4737c80a1509", "c180eb7ff4d103dc"),
    ("tall", "TREK_ALT"): ("92a1d8e08ef236bb", 290, "dc89ff2b68d8794a", "6e4f49f017d41849", "bf3064c22e3cd5a5"),
    ("tall", "TREKS"): ("5e1f64dee0675406", 270, "d83343d63140bec6", "bbf72c3a830c0e3c", "91cb08208bd96899"),
    ("tall", "GREK"): ("91bc2ff65a43fd2a", 170, "89833b3b6fd3005e", "62e2d73b1bb51ecd", "8181ab788f5d31b3"),
    ("tall", "SREK"): ("d1449b7b65e96b07", 170, "05f8027cff40c12c", "65d54992dece2378", "ab3d45c0813d1c3d"),
    ("tall", "TGREK"): ("97fb27850963100c", 100, "dce377498b6fcf79", "4956ddffe38ac4b1", "07c064def0d50549"),
    ("tall", "TSREK"): ("93f214baa689777a", 90, "099cc2b28bb26d9b", "691134089058d18e", "022b56d181cd9766"),
    ("tall", "TSREKS"): ("4f06034678817a67", 90, "197440a0af04f0e3", "929ed3bbae6ccc1f", "28b4e3a8ca1f73a1"),
    ("tall", "RK"): ("ec6d17f5f76fbff2", 2000, "176e42c8d4e44168", "1c4555c845cbfcb4", "6c1355184d9b9e66"),
    ("tall", "TRKS"): ("e9c4c07c10c2a761", 2000, "3362c2f85df7aef3", "50307a6f2a64e856", "824959e95f061c37"),
    ("tall", "TGRK"): ("ed0afff4c434d293", 2000, "09704317de5f34da", "a947f037a8ea5db8", "d90e81e9d51a3082"),
    ("tall", "TSRK"): ("86cd6f758400aeb3", 2000, "eb515d0db171622c", "d4b22bbecbeb2bcb", "f43a8c7d2862a7d7"),
    ("tall", "TSRKS"): ("d98b20bf0d20292b", 2000, "b51fdf14ce4edeaf", "f86e4abf7415e8a3", "ba4ec9f3ef6c1255"),
    ("tall", "GPROJ"): ("2204c70e6931e6e5", 110, "8d912be0cb792c06", "8cb18e25e43b38eb", "cb4a4f1b9d0431cb"),
    ("tall", "SPROJ"): ("2756d9e8d1c6c73b", 110, "17eed54416c2c627", "7e206d23738c8bcf", "3ae5eb5a2975491a"),
    ("wide", "REK"): ("d4d74e0fde8155a0", 460, "de23f130fbfcb31a", "ec122cab1d76b62e", "0e82bfe193b8e600"),
    ("wide", "TREK_ALT"): ("ee37c20761d51f8d", 290, "eb8a5f741cc47b4b", "ddd7f152f2dabb0c", "4811f808ab43d43b"),
    ("wide", "TREKS"): ("76d71eb0667bd78e", 240, "10c8e29b0cb854c9", "614a601606569696", "7e8e43e1091d453e"),
    ("wide", "GREK"): ("452f879bcb803767", 130, "9198e538c31aa97f", "51410e645446fd60", "fcf5436bcdecac8b"),
    ("wide", "SREK"): ("ef3856a833fbeb5c", 160, "395bf8a42bb20eb0", "ce692d05840d2eed", "69279667e6283a26"),
    ("wide", "TGREK"): ("ca694e70affce53e", 90, "3464f8b4ff4317d1", "36b0277ec8b68eb1", "3a7195f2f030684a"),
    ("wide", "TSREK"): ("6208e7b67a185a71", 50, "17fe2f8ff17e916e", "42e79d8c2c6f10c3", "f1327af7dd80671b"),
    ("wide", "TSREKS"): ("cc30106e62e2f572", 90, "77e8ecc8faae274a", "d6df844b2814f179", "6a0a2577e0591cf9"),
    ("wide", "RK"): ("08475b4cd2b1a01a", 360, "734dd8a3d1f84b5c", "25a9bf25fd1bc6cf", "a49bb62f99b0e22f"),
    ("wide", "TRKS"): ("e80168a414a9f90c", 160, "81245c67421ae02c", "0e1557cb4673f701", "84874836709eb030"),
    ("wide", "TGRK"): ("02c64afb3aba7759", 70, "82e03fa478922435", "798e0eba187fef8e", "a97babfe7877fd40"),
    ("wide", "TSRK"): ("5a4d896243976e9f", 60, "1a9cce39631a28a7", "358bd3863504c997", "3dfefd9a4a2aec98"),
    ("wide", "TSRKS"): ("c74f04bbd279d9fe", 60, "c53a937fb981962c", "91fef1e593ba3cec", "a293cebc0d7727e3"),
    ("wide", "GPROJ"): ("297206e79deddbe0", 2000, "7b4004a5d299d7fd", "b327d7158a4d62f6", "3c8397d2f1b27cd5"),
    ("wide", "SPROJ"): ("c54683d950c59da4", 2000, "206d9269ce446e48", "88ab5d5fc709dc58", "fc30c7a16ddfd250"),
    ("tomo", "REK"): ("caf018171cca023b", 2000, "d0abaeef3838aaac", "9eca788da741d5f8", "144837ac443ac0ae"),
    ("tomo", "TREK_ALT"): ("865402ea830756f3", 2000, "3aa8e802aeaccc93", "c6d7ac738fd333f5", "f9f51b5eb23fadd4"),
    ("tomo", "TREKS"): ("61505478c3239f74", 2000, "828febe073d0be2c", "d850d783120a2870", "c184f12a497c69f0"),
    ("tomo", "GREK"): ("5024e2279eb41e4e", 680, "b2f7220684f7b4f4", "b5f5351a4c9cc7a4", "aeaaa61ed1a9ba51"),
    ("tomo", "SREK"): ("2aca7d6f4b24d05d", 630, "5886ac40f56326d3", "875fde600d13d40f", "34b8fd5509294380"),
    ("tomo", "TGREK"): ("c3ddd40a3884cb0d", 390, "73a2bd33d8e0bda2", "40e129b57ceb6e9a", "7167e0cab35e50a6"),
    ("tomo", "TSREK"): ("7b27821e4a0263b3", 300, "43fcdd4e96ed4099", "a927e052aae768b3", "a639e1cab9e464af"),
    ("tomo", "TSREKS"): ("e28de96c0af556f4", 460, "80bce6ba4016cbc2", "f9a4691a2d904a65", "3118700ed00ea184"),
    ("tomo", "RK"): ("631056b312922b75", 2000, "9788bddd19354814", "0a1b7036d926d7e9", "aa315cc041ccce5d"),
    ("tomo", "TRKS"): ("630ba23d766918a8", 2000, "6f5e4014b958d70d", "17cefb973ebe8c7e", "2c3242e52e19a7e9"),
    ("tomo", "TGRK"): ("4f2428ff9c68414a", 2000, "c9355905d42876d9", "44f86d0300e58936", "e177caf5e00dc8a1"),
    ("tomo", "TSRK"): ("ab3bb31ef5020f12", 2000, "5c3d1e1c1c98d13b", "fe15839a9dfc1ca8", "28a2b26d32af2682"),
    ("tomo", "TSRKS"): ("b1763f4cffc3a691", 2000, "05d5aebdd6800018", "275d15575498f5bf", "e3409bf8d24fcf3f"),
    ("tomo", "GPROJ"): ("596d21adbdd1ea11", 210, "15f26df592f09ead", "33d63e530e8b3291", "88f5ca0eb4d5276d"),
    ("tomo", "SPROJ"): ("2d8f860ef1ccfefb", 210, "96e50e9b5467c0c2", "9252652371d0e8b1", "4a0b0d338a9e85c2"),
}

# The same under the Haswell kernels
HASWELL = {
    ("tall", "REK"): ("e91c3e7f06f367f0", 550, "ef9c35a1d3d09ffe", "d3d16678138f1f48", "159046bd2ff23582"),
    ("tall", "TREK_ALT"): ("92a1d8e08ef236bb", 290, "6329134a8d4a98b7", "e97521b41738e014", "0525a4942be7945a"),
    ("tall", "TREKS"): ("5e1f64dee0675406", 270, "1d5cf01bdbc03277", "b25dee059f40bae4", "55f620a1b75eed8d"),
    ("tall", "GREK"): ("91bc2ff65a43fd2a", 170, "c5dafd2381bd61cb", "4570a240e34ab333", "81dfd3db216ead4f"),
    ("tall", "SREK"): ("d1449b7b65e96b07", 170, "93423da2cc857be6", "a9b0ac8173168cf0", "6d5d5e5935ab3efc"),
    ("tall", "TGREK"): ("97fb27850963100c", 100, "bb8c35993441aadd", "91c488f91b1c71e3", "ed3462c44e061f29"),
    ("tall", "TSREK"): ("93f214baa689777a", 90, "950666e3c4fd697f", "c64b7af021815336", "02061b2409a764fa"),
    ("tall", "TSREKS"): ("4f06034678817a67", 90, "3eebe4befb8d0c46", "e2741747c763efb7", "37a3ba010befbb66"),
    ("tall", "RK"): ("ec6d17f5f76fbff2", 2000, "0c4c53d53edbdebb", "354b32550f940a0c", "f8bec2d8ee707265"),
    ("tall", "TRKS"): ("e9c4c07c10c2a761", 2000, "561103c21279ccfe", "292a4afac6db92ce", "54c1f58502833b8c"),
    ("tall", "TGRK"): ("ed0afff4c434d293", 2000, "209e3833a641aab5", "7fdec36580925710", "1033418315dfa229"),
    ("tall", "TSRK"): ("86cd6f758400aeb3", 2000, "01db1b53ee77bddf", "997d96f4fd81e368", "6c94c7bd0f5e0e13"),
    ("tall", "TSRKS"): ("d98b20bf0d20292b", 2000, "b1ff89b4d52ed11c", "331b504cd14b08cb", "29d656b339768200"),
    ("tall", "GPROJ"): ("2204c70e6931e6e5", 110, "a5958b687c64f7a0", "c0663d771fe4891e", "406e5e36ded6cf6e"),
    ("tall", "SPROJ"): ("2756d9e8d1c6c73b", 110, "0b190a009ca60275", "c7e5e017d555412e", "6a38c1dd348e781b"),
    ("wide", "REK"): ("d4d74e0fde8155a0", 460, "3e4527ddecdeacef", "b85d76612bb841ef", "92615353a74dd9d3"),
    ("wide", "TREK_ALT"): ("ee37c20761d51f8d", 290, "d44f39e0380080cc", "084684a98a45ebe2", "144b2d26a0198d84"),
    ("wide", "TREKS"): ("76d71eb0667bd78e", 240, "be127eac38e9cc06", "eb9c3800547b6206", "3b2b76bcfb61b5d8"),
    ("wide", "GREK"): ("452f879bcb803767", 130, "7d0036661edc2528", "bcdf0d761dcc68aa", "a8fd92500be95ecd"),
    ("wide", "SREK"): ("ef3856a833fbeb5c", 160, "a1df0ed6301c5684", "82276ec095293bd0", "a42aa91005080d70"),
    ("wide", "TGREK"): ("5321f4145185cdca", 90, "baa617707711c602", "fe71425f199c9a68", "d60f2f52f25bf982"),
    ("wide", "TSREK"): ("da3fefe29bcbc825", 50, "7cc7d3acbf58d262", "66e444a4fe33bea8", "bbbff567b2d87b5b"),
    ("wide", "TSREKS"): ("cc30106e62e2f572", 90, "72c653e4ef398430", "bf1bc17d8cbbca75", "e01df01df1836ed7"),
    ("wide", "RK"): ("08475b4cd2b1a01a", 360, "854854b7d27a5b7b", "0b83b302468b57cc", "30e97b90bbc21522"),
    ("wide", "TRKS"): ("e80168a414a9f90c", 160, "37965e666fa21984", "c64deacc877b1b91", "8633cef3317950a0"),
    ("wide", "TGRK"): ("02c64afb3aba7759", 70, "2258c48fa54fb652", "36672639b789f8ab", "4ccfde07dcd1d9e6"),
    ("wide", "TSRK"): ("5a4d896243976e9f", 60, "7596088a9876c341", "8bd7f8e84f08ac21", "9f95e8e86daf2dfd"),
    ("wide", "TSRKS"): ("c74f04bbd279d9fe", 60, "16515bdfe0662db3", "c7701ad7a0fc88ed", "a4f48551c75c5fd5"),
    ("wide", "GPROJ"): ("6c0b7de965030eef", 2000, "8e08fb964cf6c22f", "eff5e0db757781a0", "7563dddcc67fe229"),
    ("wide", "SPROJ"): ("b7d0f86b9cf6ddb4", 2000, "49c8c7d072b7543a", "e2d83c9c358d0146", "1e84133f0acb67dc"),
    ("tomo", "REK"): ("caf018171cca023b", 2000, "e2f298f01fed4492", "57872fc26dc8a92e", "b03c9fcad60e93dd"),
    ("tomo", "TREK_ALT"): ("865402ea830756f3", 2000, "6c87abf7424582c9", "43b1dca44dd0aa65", "09c2790cc096713c"),
    ("tomo", "TREKS"): ("61505478c3239f74", 2000, "c75290f5a88cf91a", "02dbe50c91d541f6", "7ec3df97d0b7ce52"),
    ("tomo", "GREK"): ("5024e2279eb41e4e", 680, "b16cdaa1da658e67", "57cd83fb60dc2c21", "0d7629f8ea6396e8"),
    ("tomo", "SREK"): ("c036c748b63f4d52", 630, "498b1bf4716aeba7", "071f411dbd08363f", "26dbaf879a92d227"),
    ("tomo", "TGREK"): ("c3ddd40a3884cb0d", 390, "9302f6b2b7760777", "050bdcd61c4b3d02", "a9e7fd84c8b5bf78"),
    ("tomo", "TSREK"): ("57813388c24da061", 300, "e0142eb743596891", "bca1a9c22a1870b4", "3d6f8e20594efd91"),
    ("tomo", "TSREKS"): ("e28de96c0af556f4", 460, "4dbd2b6fb8f51be8", "b6e74320335ca8e4", "27d44494fc4e1428"),
    ("tomo", "RK"): ("631056b312922b75", 2000, "d8baa75cef4cb4c3", "ef06c08113db9b8c", "75d640ef5f910db8"),
    ("tomo", "TRKS"): ("630ba23d766918a8", 2000, "62303acb712ae155", "15a7f533710c08f6", "365dd58c4da353cc"),
    ("tomo", "TGRK"): ("4f2428ff9c68414a", 2000, "bb110ce5f0473974", "db4b088a9cccaf4d", "bff88023c0443f6c"),
    ("tomo", "TSRK"): ("ab3bb31ef5020f12", 2000, "4b396c33843c2749", "71343d8e9863c197", "019ced2cc4417b8e"),
    ("tomo", "TSRKS"): ("b1763f4cffc3a691", 2000, "ac8ffd386ea38e9c", "f6bc359a0e63e6a1", "0921d5831ddf1024"),
    ("tomo", "GPROJ"): ("596d21adbdd1ea11", 210, "89dffcefce7571f6", "8a5793faf13a1952", "548b964165e52275"),
    ("tomo", "SPROJ"): ("2d8f860ef1ccfefb", 210, "07c674f69771efba", "082a78e978b2c555", "310738873fb5f71c"),
}

GOLDEN = {SKYLAKEX_KEY: SKYLAKEX, HASWELL_KEY: HASWELL}


def _sha16(*chunks):
    """First 16 hex digits of the sha256 of the chunks' bytes, in order."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _digest(state):
    """_sha16 of x's bytes, then z's, each after its tag (an absent one: no bytes)."""
    tagged = ((b"x", state.x), (b"z", state.z))
    return _sha16(*(tag + (b"" if v is None else v.tobytes()) for tag, v in tagged))


def test_golden_covers_every_case():
    for table in GOLDEN.values():
        assert set(table) == {(p, k.value) for p in PROBLEMS for k in SolverKind}


@functools.cache
def run_case(name, kind):
    """The five values of GOLDEN[name, kind.value], from one PICKS-step run and one solve."""
    problem = PROBLEMS[name]()
    picks, states = [], []
    axis_step, initial = solvers._axis_step, SolverState.initial.__func__

    def spy_axis_step(state, problem, caches, axis, idx):
        picks.append((not axis.row, idx[0], idx[1] if len(idx) == 2 else -1))
        return axis_step(state, problem, caches, axis, idx)

    def spy_initial(cls, *args, **kwargs):
        # solve returns no iterate, so its state is caught as it is created.
        states.append(initial(cls, *args, **kwargs))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_axis_step", spy_axis_step)
        caches = build_caches(problem.A, kind)
        stepped = SolverState.initial(kind, problem, seed=SEED)
        for _ in range(PICKS):
            step(stepped, problem, caches, CONFIG)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SolverState, "initial", classmethod(spy_initial))
        rec = solve(kind, problem, SOLVE_CONFIG, seed=SEED)
    (solved,) = states
    pick_hash = _sha16(np.asarray(picks[:PICKS], dtype="<i8").tobytes())
    history_hash = _sha16(np.asarray(rec.history, dtype="<f8").tobytes())
    return pick_hash, rec.iters, history_hash, _digest(stepped), _digest(solved)


@pytest.mark.parametrize("kind", list(SolverKind))
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_golden_trajectory(name, kind):
    expected = pinned(GOLDEN)[name, kind.value]
    assert run_case(name, kind)[:3] == expected[:3]
