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
The tall and tomo rows were recorded again when a tall full-rank A began
to project its draw through A^T A (the corrected semi-normal equations),
not the SVD: b moved in its last bits, and with it the history hashes, the
digests and the pick hash of tomo SREK and TSREKS (SkylakeX) and of tomo
TSREK and TSREKS (Haswell).  No iteration count moved.
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
    ("tall", "REK"): ("e91c3e7f06f367f0", 550, "79b096f66a4d67ad", "b98e90dca3cc159a", "7c2abdd5fa8ecabb"),
    ("tall", "TREK_ALT"): ("92a1d8e08ef236bb", 290, "36e61e19e6ba9e0b", "c045d92360a6a5b1", "9fa9defa71bd7053"),
    ("tall", "TREKS"): ("5e1f64dee0675406", 270, "05e2d4515dfd83f5", "05ce5277fef023a0", "91ff30f72d256962"),
    ("tall", "GREK"): ("91bc2ff65a43fd2a", 170, "b365d7482ed68125", "755b378d18d7bac5", "360e978a4c1fc06b"),
    ("tall", "SREK"): ("d1449b7b65e96b07", 170, "e7c12a61f1a11c60", "9591f32ffee96e9a", "6563f4926f053376"),
    ("tall", "TGREK"): ("97fb27850963100c", 100, "04ffc307d2500a5b", "b1298f60053acee8", "fe0700ba616631e1"),
    ("tall", "TSREK"): ("93f214baa689777a", 90, "bc893f856a8f4f17", "c0d3fe940678e0dd", "2d550019f63829d7"),
    ("tall", "TSREKS"): ("4f06034678817a67", 90, "95bb61055b87f02f", "5187ab7c138f273b", "3c95fa9f365efa94"),
    ("tall", "RK"): ("ec6d17f5f76fbff2", 2000, "7dc7beeba5544771", "0bd73ffa15322919", "5164ceaeec44a873"),
    ("tall", "TRKS"): ("e9c4c07c10c2a761", 2000, "f89448f27a244055", "c9dcf3acd85e24e9", "e8d5e4100f48586d"),
    ("tall", "TGRK"): ("ed0afff4c434d293", 2000, "356078539b5375e4", "dbe3a03f464b8c1a", "5b4371b493efe782"),
    ("tall", "TSRK"): ("86cd6f758400aeb3", 2000, "5bd94a63d55ee418", "82c57ae008d3b8a1", "e6b7fc2be9fd94a2"),
    ("tall", "TSRKS"): ("d98b20bf0d20292b", 2000, "943a30919a635909", "96e3885fe0683cee", "1f6512cf4f7fe96f"),
    ("tall", "GPROJ"): ("2204c70e6931e6e5", 110, "9deee8fe38cceec1", "d6ce784c1c90b3d5", "15a9f6a4243f7025"),
    ("tall", "SPROJ"): ("2756d9e8d1c6c73b", 110, "d876f6cdc4e7afb6", "8fbcdd88e3fc650d", "5bd7b920f36f20d9"),
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
    ("tomo", "REK"): ("caf018171cca023b", 2000, "b482f9b77b9a4d41", "44dc5d0cce4eb589", "f12bf3324d2c87f4"),
    ("tomo", "TREK_ALT"): ("865402ea830756f3", 2000, "7fdda61d9a69c9db", "a81357ebc18065be", "14679e3ea4239063"),
    ("tomo", "TREKS"): ("61505478c3239f74", 2000, "9ff4beacf1ec63cf", "baafbc8beb0994af", "5a007b244b864051"),
    ("tomo", "GREK"): ("5024e2279eb41e4e", 680, "89196e49f4dfff1e", "7516b4c453ca9384", "ebdbcab48cf3fab1"),
    ("tomo", "SREK"): ("c60fad386b8d31a2", 630, "958efbf2a0c1977b", "e7376d0737963662", "1a586929de75c23b"),
    ("tomo", "TGREK"): ("c3ddd40a3884cb0d", 390, "10e0d493aafb67bc", "53353fa0d3f187ca", "b4ac2e9909e03049"),
    ("tomo", "TSREK"): ("57813388c24da061", 300, "24326fa29235e924", "d17dd18e50523150", "309898af76a7af84"),
    ("tomo", "TSREKS"): ("1200a30d4f10a69b", 460, "8160b5bed2acd3fc", "97554435a77406ea", "b25cd5da40906f83"),
    ("tomo", "RK"): ("631056b312922b75", 2000, "3b3aea4001d3f5be", "17046ea3276248ce", "1040b4d760906f20"),
    ("tomo", "TRKS"): ("630ba23d766918a8", 2000, "431aeaebb7e2e378", "eb383605bdce0c97", "1ba8e7ff95af2c4e"),
    ("tomo", "TGRK"): ("4f2428ff9c68414a", 2000, "2a141039b2aa9e34", "19b735f3989910ed", "720db4a8713330cf"),
    ("tomo", "TSRK"): ("ab3bb31ef5020f12", 2000, "3c58a9169687f0dd", "7838ac0b7653e6bd", "3b415183792d90c0"),
    ("tomo", "TSRKS"): ("b1763f4cffc3a691", 2000, "48da0cf2cc1f4bf6", "442547e2d7aff8f7", "7070892d123403d9"),
    ("tomo", "GPROJ"): ("596d21adbdd1ea11", 210, "eafb737d15204530", "27b515e8730f46b1", "927f3d9ec63190a4"),
    ("tomo", "SPROJ"): ("2d8f860ef1ccfefb", 210, "2724b2e4b2d04101", "f4fc2fdcdf1d1022", "ada4c8499cb47218"),
}

# The same under the Haswell kernels
HASWELL = {
    ("tall", "REK"): ("e91c3e7f06f367f0", 550, "7c595cf9dfd0181d", "e2bf314a684f3767", "8c2319723c1716a3"),
    ("tall", "TREK_ALT"): ("92a1d8e08ef236bb", 290, "caa9ba80858122ed", "2e2f826adc0a5bb9", "9b29caf8148a1e2a"),
    ("tall", "TREKS"): ("5e1f64dee0675406", 270, "16c7bf3355e970f5", "7ec0f4ea97ad3946", "11d3f0cf67a9949e"),
    ("tall", "GREK"): ("91bc2ff65a43fd2a", 170, "998cb23e6dedb19a", "06c5e9d1a3024911", "7ae0dbeb9585886f"),
    ("tall", "SREK"): ("d1449b7b65e96b07", 170, "511f2a38a4572759", "9b13e55ea9852685", "899ef7f17990112c"),
    ("tall", "TGREK"): ("97fb27850963100c", 100, "fb0389a1cb151f3e", "5e3aa9b6d6ae924d", "35c3f21b204d261f"),
    ("tall", "TSREK"): ("93f214baa689777a", 90, "34f86111eabbc5ee", "cbcb7e058cd3b8a9", "c61035999366dc60"),
    ("tall", "TSREKS"): ("4f06034678817a67", 90, "17c70e6435840a60", "bcd52f5358a831bf", "6a11a9666f184766"),
    ("tall", "RK"): ("ec6d17f5f76fbff2", 2000, "087b84f3b5085757", "c0b054c25c3d52a2", "72bc9d1038f07ee5"),
    ("tall", "TRKS"): ("e9c4c07c10c2a761", 2000, "93d1c9e8b25b65ad", "ed3e58b6cd74d44e", "5133e7723e30ae2d"),
    ("tall", "TGRK"): ("ed0afff4c434d293", 2000, "e8b06fbacd0b96fe", "6e303e40b09f9680", "204950d470d31884"),
    ("tall", "TSRK"): ("86cd6f758400aeb3", 2000, "97af8b3f3d48afec", "e214c42b63346137", "91e87bf9ae51cd3d"),
    ("tall", "TSRKS"): ("d98b20bf0d20292b", 2000, "0c5aa4e5a8893476", "b971cb3375142343", "d0d8d805ba204d98"),
    ("tall", "GPROJ"): ("2204c70e6931e6e5", 110, "b6e27a394d169ae9", "a506ff3356fcaf77", "cab62eca782c57be"),
    ("tall", "SPROJ"): ("2756d9e8d1c6c73b", 110, "017285619b013c43", "f9233b70a69e03cc", "c80fca63dd5c729e"),
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
    ("tomo", "REK"): ("caf018171cca023b", 2000, "754025452574b2a4", "3fb9a7aebea0e23b", "add78c1e6a8a1299"),
    ("tomo", "TREK_ALT"): ("865402ea830756f3", 2000, "c6b7b3f4d42a7d2e", "5de009833a1d6525", "1ed4b03c6821e46b"),
    ("tomo", "TREKS"): ("61505478c3239f74", 2000, "d07a3df1adaceee7", "593962a5a71b67c5", "7648bad6241ddf7b"),
    ("tomo", "GREK"): ("5024e2279eb41e4e", 680, "3b10afd6dcbf20e6", "7da03ac8fb05714e", "6e9140df5e5d896d"),
    ("tomo", "SREK"): ("2aca7d6f4b24d05d", 630, "90eb8dfef10b8747", "a5badd32aff1ffcb", "c86874beed8f8349"),
    ("tomo", "TGREK"): ("c3ddd40a3884cb0d", 390, "2525a9ce7d75befa", "e9e33e3a27bb6e49", "b908ec81b8a76b22"),
    ("tomo", "TSREK"): ("aded4d957183da62", 300, "288e0515cf4742f5", "8a6cd8d15d51e4bd", "d8dabe5c84d6ca12"),
    ("tomo", "TSREKS"): ("fc927aa3c66937ff", 460, "10744b16e0396019", "8d1285521dfce35d", "4803bae89f8b1c2c"),
    ("tomo", "RK"): ("631056b312922b75", 2000, "35ebe91211842669", "12dab2da2f7d1559", "caf2eb7a43cd4f51"),
    ("tomo", "TRKS"): ("630ba23d766918a8", 2000, "4e984842a7573e97", "68277fd5a068500a", "405bed0713391412"),
    ("tomo", "TGRK"): ("4f2428ff9c68414a", 2000, "201a3106e3b335ed", "d2794ed80d837a72", "3b530f7c9ced2d7b"),
    ("tomo", "TSRK"): ("ab3bb31ef5020f12", 2000, "2a4eaf77e8b0608c", "c878952afad0f494", "3e574cf007b04643"),
    ("tomo", "TSRKS"): ("b1763f4cffc3a691", 2000, "0b927c49fb28509f", "66b2c4393f608e00", "86ce53264824d20b"),
    ("tomo", "GPROJ"): ("596d21adbdd1ea11", 210, "3db01e4e9bc134f1", "63434d697a5541a9", "bbf70f6ebb11284d"),
    ("tomo", "SPROJ"): ("2d8f860ef1ccfefb", 210, "82b8b565bca2ca85", "4efe0de3ec16bb6a", "1dfb10f608939617"),
}

GOLDEN = {SKYLAKEX_KEY: SKYLAKEX, HASWELL_KEY: HASWELL}


def _sha16(*chunks):
    """First 16 hex digits of the sha256 of the chunks' bytes, in order."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _digest(run):
    """_sha16 of x's bytes, then z's, each after its tag (an absent one: no bytes)."""
    tagged = ((b"x", run.x), (b"z", run.z))
    return _sha16(*(tag + (b"" if v is None else v.tobytes()) for tag, v in tagged))


def test_golden_covers_every_case():
    for table in GOLDEN.values():
        assert set(table) == {(p, k.value) for p in PROBLEMS for k in SolverKind}


@functools.cache
def run_case(name, kind):
    """The five values of GOLDEN[name, kind.value], from one PICKS-step run and one solve."""
    problem = PROBLEMS[name]()
    picks, axis_step = [], solvers._axis_step

    def spy_axis_step(state, problem, caches, axis, idx):
        picks.append((not axis.row, idx[0], idx[1] if len(idx) == 2 else -1))
        return axis_step(state, problem, caches, axis, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_axis_step", spy_axis_step)
        caches = build_caches(problem.A, kind)
        stepped = SolverState.initial(kind, problem, seed=SEED)
        for _ in range(PICKS):
            step(stepped, problem, caches, CONFIG)
    rec = solve(kind, problem, SOLVE_CONFIG, seed=SEED)
    pick_hash = _sha16(np.asarray(picks[:PICKS], dtype="<i8").tobytes())
    history_hash = _sha16(np.asarray(rec.history, dtype="<f8").tobytes())
    return pick_hash, rec.iters, history_hash, _digest(stepped), _digest(rec)


@pytest.mark.parametrize("kind", list(SolverKind))
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_golden_trajectory(name, kind):
    expected = pinned(GOLDEN)[name, kind.value]
    assert run_case(name, kind)[:3] == expected[:3]
