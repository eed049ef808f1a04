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
The wide and tomo rows were recorded again when every generator began to
project its residual draw off range(A) once (the wide problem had taken a
second pass, tomography always two): b moved in its last bits, and with it
the history hashes, the digests and, where greedy picks nearly tie, the
pick hash of wide TGREK, TSREK, GPROJ and SPROJ and tomo SREK, TSREK and
TSREKS.  No iteration count moved.
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
    ("wide", "REK"): ("d4d74e0fde8155a0", 460, "211450370210ed48", "03ee7e51896e021f", "6bdcddca0b1495c8"),
    ("wide", "TREK_ALT"): ("ee37c20761d51f8d", 290, "13a0749bb0b39514", "84cdf5a8da99d849", "5d4115aafdf76a7d"),
    ("wide", "TREKS"): ("76d71eb0667bd78e", 240, "98da83e82a0de729", "a6ebadc61c95aa6e", "4085181023688863"),
    ("wide", "GREK"): ("452f879bcb803767", 130, "d80a4256cb966725", "f3ecf628cfa633cb", "dabd249446091113"),
    ("wide", "SREK"): ("ef3856a833fbeb5c", 160, "72d916e098fac79d", "a3393faec04db232", "a7dfc5d53217ac87"),
    ("wide", "TGREK"): ("98048a2bfe8cb7e9", 90, "d7e23fc1c9114396", "7ff37054d56f2db2", "80b042690da05759"),
    ("wide", "TSREK"): ("c702b83f75fb1aaa", 50, "76be37d0f9a90805", "18a7d3cf9a071906", "6a7ebdc61062f3e1"),
    ("wide", "TSREKS"): ("cc30106e62e2f572", 90, "d235fb9a830d35b6", "7d7f9648d91e158e", "19f9d82eea1c2ba5"),
    ("wide", "RK"): ("08475b4cd2b1a01a", 360, "f2159697ff3ab3a7", "d8887b947d1e28e6", "afcb40c0c7928761"),
    ("wide", "TRKS"): ("e80168a414a9f90c", 160, "d323699290a95c6b", "358e3d84de77ecbd", "93f16c9a3d607f01"),
    ("wide", "TGRK"): ("02c64afb3aba7759", 70, "2d5aeaed1d79333a", "fc215f4044438456", "9150153c1c2a2afa"),
    ("wide", "TSRK"): ("5a4d896243976e9f", 60, "cff6ca18125af40f", "e94bd1a8e03916a2", "756a005946ffa7b6"),
    ("wide", "TSRKS"): ("c74f04bbd279d9fe", 60, "623b02147fe5feac", "a0fe9748bb457cbf", "031006ca002eb170"),
    ("wide", "GPROJ"): ("daa32cdc69cebb02", 2000, "f6c3098a35b3f8cd", "5efc792d54f00cb3", "78e9f6032ce70276"),
    ("wide", "SPROJ"): ("ed999d7c12ccdad5", 2000, "b3526680cd100979", "f3f125ead45d23f4", "5e6d2e9245abfca3"),
    ("tomo", "REK"): ("caf018171cca023b", 2000, "5a1f755ec2e5a9d5", "d5b936a432520341", "33d2bf7ba5c78239"),
    ("tomo", "TREK_ALT"): ("865402ea830756f3", 2000, "f22442343f2f43b1", "10fc971f8ebc4876", "49386b6c506272f4"),
    ("tomo", "TREKS"): ("61505478c3239f74", 2000, "5ac65d428518dc04", "c538e8b46fdf6086", "f4e5aab25863efef"),
    ("tomo", "GREK"): ("5024e2279eb41e4e", 680, "ed95614508991375", "6242aa88375070a9", "5ce0960adfd8259a"),
    ("tomo", "SREK"): ("400790486ac43aa7", 630, "0c7eec1d9409be85", "189dad078dcb99d0", "cfdd7405266c3aa3"),
    ("tomo", "TGREK"): ("c3ddd40a3884cb0d", 390, "4c8cb93aa5d8e394", "9558aef599a922a6", "853118dc03bc1ff0"),
    ("tomo", "TSREK"): ("57813388c24da061", 300, "fec9e289cd6fc82c", "844be3702d3a6eb5", "9d823af63cfdc9fc"),
    ("tomo", "TSREKS"): ("eabeef566cbfdaf4", 460, "42901d51fbbca857", "8674d809dcaa0a4a", "a97fc23eb6be93df"),
    ("tomo", "RK"): ("631056b312922b75", 2000, "d80e28ee27003588", "ba757067261cdf89", "371c97ac812cff01"),
    ("tomo", "TRKS"): ("630ba23d766918a8", 2000, "242f6d0a2ca02714", "92285363ed95d664", "bd11e9fbd7a9ade6"),
    ("tomo", "TGRK"): ("4f2428ff9c68414a", 2000, "0fb0bea09411643e", "8a6fc8515d455a38", "0a9a24c451e184fc"),
    ("tomo", "TSRK"): ("ab3bb31ef5020f12", 2000, "d98cced26fd42d81", "5650c8172c948885", "b3746361ae9e9a99"),
    ("tomo", "TSRKS"): ("b1763f4cffc3a691", 2000, "fcc658b09067f99b", "f7a7d5e77ffc78e8", "1cd19263e5681247"),
    ("tomo", "GPROJ"): ("596d21adbdd1ea11", 210, "64dd8a77e12d1708", "4007bdcab191ce8f", "dc9d8300ddb75a16"),
    ("tomo", "SPROJ"): ("2d8f860ef1ccfefb", 210, "6e6a805f77b67c41", "ddcc21de86ae37a1", "2232300c2ae683eb"),
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
    ("wide", "REK"): ("d4d74e0fde8155a0", 460, "d927376feff5354a", "4d2e733a538a47dc", "e200d3021a9e22d2"),
    ("wide", "TREK_ALT"): ("ee37c20761d51f8d", 290, "5b3b9bc2d03458c7", "76537732438b2ec8", "08128b8d078ab65e"),
    ("wide", "TREKS"): ("76d71eb0667bd78e", 240, "80df217e7633b127", "433c2ffc5026ba32", "70d4c2881408853c"),
    ("wide", "GREK"): ("452f879bcb803767", 130, "cf74b2728d230761", "77744f4337f2d5c3", "3ae442ae82dba021"),
    ("wide", "SREK"): ("ef3856a833fbeb5c", 160, "90e317ee7014129e", "5e06b917c1c7e6f6", "563630f3a99fcdc9"),
    ("wide", "TGREK"): ("3375ab21690f5080", 90, "002e3c2263543abc", "5760545f9673b7fa", "151a99d1c254807b"),
    ("wide", "TSREK"): ("72aa3f498db420e3", 50, "ca0cfb398a5e8a67", "aa02dae629c3d61e", "5e499237c2ad3106"),
    ("wide", "TSREKS"): ("cc30106e62e2f572", 90, "979a00ae9618ff77", "abc4e35d5e6a7b1e", "025173d17f8efbe8"),
    ("wide", "RK"): ("08475b4cd2b1a01a", 360, "7597715a1b54db73", "de629d44f2802132", "30f38cc28704c3f2"),
    ("wide", "TRKS"): ("e80168a414a9f90c", 160, "272f057711792628", "2a55e68fed58c8b1", "56dd96726617128e"),
    ("wide", "TGRK"): ("02c64afb3aba7759", 70, "911e74860471fe3f", "f6970bddebfbb2e2", "bb03cb2e91e9c998"),
    ("wide", "TSRK"): ("5a4d896243976e9f", 60, "a7423f5d0f1ef0e3", "8c36348bdb8dabab", "5ee3355c1f17e24e"),
    ("wide", "TSRKS"): ("c74f04bbd279d9fe", 60, "25616cf432a06d3c", "86ce069824b1b00f", "6452001256d680de"),
    ("wide", "GPROJ"): ("5292c1fdcbaaeed0", 2000, "6ebfaafeebfe01d3", "43bdba5f285b5210", "80b64dd06bbcd35d"),
    ("wide", "SPROJ"): ("b2a997ab1b5efb12", 2000, "24cc16610c12b164", "d688bc5760669ac3", "de5ecc28da13a548"),
    ("tomo", "REK"): ("caf018171cca023b", 2000, "0b9e28de6c0fd34c", "3a258bae316a46b7", "5128e1c5f63f8fe0"),
    ("tomo", "TREK_ALT"): ("865402ea830756f3", 2000, "69f46dfceccbab5a", "9437667c9e4ee861", "0954efd92cf88134"),
    ("tomo", "TREKS"): ("61505478c3239f74", 2000, "f9bab2418e9a3311", "701224c0ed408474", "1e9a1f5bcd4bd158"),
    ("tomo", "GREK"): ("5024e2279eb41e4e", 680, "2130f1a40b1464aa", "076161a44bcc6ca6", "12bbe6a7ec679a6b"),
    ("tomo", "SREK"): ("2aca7d6f4b24d05d", 630, "ca826721c9701487", "a2b43a04b99c1c47", "8f7a29a604c0df92"),
    ("tomo", "TGREK"): ("c3ddd40a3884cb0d", 390, "5421aacaeb22e8e4", "4dcd3211d58845fb", "039e5084b199ab22"),
    ("tomo", "TSREK"): ("e9c864d6e212320e", 300, "dbe5e562568cc19d", "42702a91323cf385", "98edfd65571c1a91"),
    ("tomo", "TSREKS"): ("38057cf4f89d4e00", 460, "5b8ea456bb59e8dd", "109c50de1038fad6", "ea2abe4d98ff8ea9"),
    ("tomo", "RK"): ("631056b312922b75", 2000, "0ab80567be31474b", "86e78b32c0f48432", "d89ad49efc094b85"),
    ("tomo", "TRKS"): ("630ba23d766918a8", 2000, "00e65aa5cab5ced4", "15a8b57249f3f7c1", "37ab6e1054496059"),
    ("tomo", "TGRK"): ("4f2428ff9c68414a", 2000, "8888c7e6d4a9a0e3", "c71753c527ef9080", "d61087cd2b02f462"),
    ("tomo", "TSRK"): ("ab3bb31ef5020f12", 2000, "6d87fac9669b9785", "1b1946ee8467fe01", "7f7fe72e33ab721e"),
    ("tomo", "TSRKS"): ("b1763f4cffc3a691", 2000, "4188822c1b6a0332", "42cf4c967bec5ffb", "90b9104a9a89b73e"),
    ("tomo", "GPROJ"): ("596d21adbdd1ea11", 210, "5d123c3035fa109d", "2041c2fe4e9fcdca", "a375e25db137c4a7"),
    ("tomo", "SPROJ"): ("2d8f860ef1ccfefb", 210, "1861051598a19dd0", "de9af19f44378daa", "c8b25cde3fdd39a6"),
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
