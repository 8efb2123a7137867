"""Golden output digests: the SHA-256 of every file the CLI writes for five
fixed runs, pinned before the engine, radio, config and cluster-formation
code were refactored.

A change that alters a single output byte fails here.  The cases cover
  defaults     the default config, two paired seeds, a short round cap;
  n1000        n=1000 for five rounds (about 100 heads per round);
  n10000       n=10000 for three rounds (about 1000 heads per round), large
               enough that form_clusters takes its cell-grid path;
  zero_heads   n=10, where most rounds elect no head and every alive node
               sends straight to the base station;
  sweep_e0     a sweep at e0=0.05, where every network dies before the cap,
               so runs end at different rounds and mean_curves.csv pads.
A deliberate output format change must re-pin these digests and say why.

IN_MEMORY pins the exact repr of the run totals that no output file
carries, for every run of the defaults and n10000 cases; they were taken
before the engine moved from node objects to arrays.  Criterion 6 checks the
dissipation ledger only to 1e-9 J, so the order in which the ledger, the
residual and the distance sums are added up is guarded here.
"""

import hashlib

import pytest

from wsnsim.cli import main
from wsnsim.engine import run
from wsnsim.model import ProtocolKind, SimConfig

CASES = {
    "defaults": ["compare", "--seeds", "1..2", "--max-rounds", "1000"],
    "n1000": ["compare", "--seeds", "1..2", "--n", "1000", "--max-rounds", "5"],
    "n10000": ["compare", "--seeds", "1..1", "--n", "10000", "--max-rounds", "3"],
    "zero_heads": ["compare", "--seeds", "1..2", "--n", "10", "--max-rounds", "300"],
    "sweep_e0": ["sweep", "--param", "m", "--values", "0.1,0.3", "--e0", "0.05",
                 "--n", "30", "--seeds", "1..2"],
}

GOLDEN = {
    "defaults": {
        "comparison.csv": "6cf9c08eab723692c3a7b1b109864271a43ce5cc50f750ed686b1155dd1f4879",
        "config.json": "5268dd1cf19f832df8906086161e467c8d02174884e8100abc1234729382cf7f",
        "derived.json": "27caa0b56281ec7ac06ab7b5834825cfebb43f4e4e597ca3000e208fb71fa9fc",
        "mean_curves.csv": "eb86bf6565084418711eafb08bc56b9ecd40984f12cb9d64e348733b10ffa995",
        "series_dbcp_seed1.csv": "f5fbbfe0669cd704ed5cca79adcc8c48a70abf120f5a18f52da1ec49d63a12cb",
        "series_dbcp_seed2.csv": "19acb24624563152aee1f88a4fb7d43ecc0039d4422081efd8c38a1bb9e01ced",
        "series_leach_seed1.csv": "d5e81181d253593a6ab144086b7a4e12539416d7491574699aa408056fb6d185",
        "series_leach_seed2.csv": "2e880f6b85b7c632528f6c3fead4df69733de4efa5a1c9ff04ead95262449eb2",
        "series_sep_seed1.csv": "4103ef4d0c108817ee1acc9655115d2c06c2a579ab993818d0a1bf89899330a0",
        "series_sep_seed2.csv": "e9f57c7b9405d6b972f6c97ca75dc5c734e27b5236660558e227435aaaac5e17",
        "summary.csv": "0f728f96361ea994766d54316d510a285071938fab82d5917d56c82a26dbc76c",
    },
    "n1000": {
        "comparison.csv": "8bccf6a5d3635a53e26ed679d94fddf2305e74e2a578c7589a824002774cd010",
        "config.json": "88584b99c059e702d9d84e641c61195b8823adc8488c0daa43c434ce63d67ec1",
        "derived.json": "81f94408d2c1983dce589a47036e68b2e9f3c04fe846482ec3921979c1f26511",
        "mean_curves.csv": "4450a2f58c4404f8fa891531be3152b2e2721e96b25d29f8a4f10d4a66e879a2",
        "series_dbcp_seed1.csv": "bb12587f0ec19f50a9314e5a269e15cb943b8790f50f05e5078b775126586bc8",
        "series_dbcp_seed2.csv": "cc15be9b95e31d8f4e0a80e8a480fe9c7a76dccc02854271868535cbeb68b9ab",
        "series_leach_seed1.csv": "1d5cee83e84441f07bbb11f0e908538f0e20cf5eee3d1517e26341cbc906543f",
        "series_leach_seed2.csv": "d5d499f4d3b0e7d4b3ef941f952d37d1ec4249b442687d0e6b28725b7cecac6f",
        "series_sep_seed1.csv": "e38da97dc2d39728b03a7b3672f100d1625ced0b645b79abe00b3c83edf2041e",
        "series_sep_seed2.csv": "e1eb616871c76959ed41a2e0b87cd30feb50759fa8f8d249942966707b7b9d73",
        "summary.csv": "8e5ae5d476f20c9263c6162055ddce04c9c46c7f23e89f0396a8601ff6096523",
    },
    "n10000": {
        "comparison.csv": "6400341783e32ac38a0bda1e378ea928783d2b587cce2e6a47a7da95f43caf24",
        "config.json": "a9b3d4a3f6b8eac7a18c5da3b9de5967ecaf7e1b1852ae93ccfc7bac4f5bf8de",
        "derived.json": "5ad5f17ce9327444fbe721201b9623e7b005439541f6d9b591aa91dd28e1e18f",
        "mean_curves.csv": "7d81c7b3d1187de7b4e50fed255b59f9c8d53903af394da5ed2acf15aca3b3b0",
        "series_dbcp_seed1.csv": "d6e0773265b72153f7c190727d9cd1cc71bd9119b69eaa627473ddf562679770",
        "series_leach_seed1.csv": "3671ba8afb0af47383bab408c530a65094848886b0000e27982e4c2646c2f03a",
        "series_sep_seed1.csv": "e4d7220387d2401f6d9edcb9bf786f7a8fb4a80393461c0ccb0d1a411cf50b94",
        "summary.csv": "9967544ea2c603cfdab855131eaadd4172ceb21a903766d3c88d44622999b2c2",
    },
    "zero_heads": {
        "comparison.csv": "8e7628d8b6b9c1b32db37dcfd319407a3bc4e54b0d2ca1e74a2c0255e406e6db",
        "config.json": "2ff8b9b41aa06d114ef2d3b703dd2c0ea9d88f79379b345b1286678533addb21",
        "derived.json": "fa2e94412124e39e9e76ea77c1c096da989ac810ef71fa1a39ea92947714df5a",
        "mean_curves.csv": "9216e7d43e4e2e19249dc18989de59e03be9ca10dc37aa9c2436afc120b9da19",
        "series_dbcp_seed1.csv": "ae09e9f530d2132be70f5b138b41913c35241379ec8bcdf140e41b0bd95978bc",
        "series_dbcp_seed2.csv": "6ad5259752b1a319884f05be44ba3aff10b575dde63fd15d7af5c99ee6d5d366",
        "series_leach_seed1.csv": "faa69887f8bb398bbb6a0443b8a54430846d0a8f53294a8237faaf9508fe2616",
        "series_leach_seed2.csv": "222d7c5bdc6c21469dcd9d76c3f3840fc6aa0df4957c595c3ffee1a520f9ed3d",
        "series_sep_seed1.csv": "65d85f0e6ba9502bdc497da2fe36e4ce0838a45cd0a890480cb585d6531282e5",
        "series_sep_seed2.csv": "28e875fea6f6476f3a94f0e2db753e6890406b8a4a16c17c9c655f9e928bc058",
        "summary.csv": "be8d665400e04e84f0a11ea46f1945ca07475b74c447232b78b90b800b52983f",
    },
    "sweep_e0": {
        "config.json": "7de2aa44e809236468cc67a0203d009cd567f0bf6e5064dd3e5e26dde49ec0a3",
        "derived.json": "5c2eb9fe5c3bf63dcc2cde209495298bc53a44e25904342037a81a56a8b7bbbc",
        "m_0.1/comparison.csv": "3100f61fe04455e6ae0f8cf21917fcb24da1adae8c9091b0c21285c893840f7d",
        "m_0.1/config.json": "5b1146112fafc5f5daa0a9bc8b27e687edb5096ee863db466b80a21d917739a8",
        "m_0.1/derived.json": "1f1b168011ac88815c9851537e764ac6f414af94a2fa39d4b0e23b4b74a905cb",
        "m_0.1/mean_curves.csv": "90069c6a81c88313517f29d3795dd8f60922a07916cf316d0630ea54b5ea2f00",
        "m_0.1/series_dbcp_seed1.csv": "30b2c9f474500ce8b33868c8bb3747179629995fe7892c9321248f8c6a30de48",
        "m_0.1/series_dbcp_seed2.csv": "46992e532c4e3101562b8b31c64099ea1705454d7f64e6262c8320ef39948098",
        "m_0.1/series_leach_seed1.csv": "eb23612b3a127078512bead9e5d0e4035905d28af5ce1a854a682b66714d29ab",
        "m_0.1/series_leach_seed2.csv": "57033a05820e0d1c9b7444b7ee6b0e493a4590e39cb46391f12185e22b6df577",
        "m_0.1/series_sep_seed1.csv": "7d6647a613f82207db55bb750907fc372095fd53901e4fcd977636ce0905b93b",
        "m_0.1/series_sep_seed2.csv": "2fbbfd57dc39c6aea6e0751cf7d049d0596d509f30884bf3d738de80a8ee687c",
        "m_0.1/summary.csv": "0a05a41d3128494e56343c4f5883cdc78f89e4adce845b5bf3e4339db5bab817",
        "m_0.3/comparison.csv": "9f5b0b331009d4c75aec0ee0a882589d10d609212f079f9256b48c608a935a3c",
        "m_0.3/config.json": "8bc2dc237c563cf8efe3ad958c78ba8ff0f8e45dbcf3764661f463efe06b2547",
        "m_0.3/derived.json": "383c74043c244b3c4125c5a8a34f205a9ff95e41dc1e6c25bb4765e167762a5c",
        "m_0.3/mean_curves.csv": "286386a6febfdc5faac51ae8f2b84b298d200af849c5f55d8922f512fc28d406",
        "m_0.3/series_dbcp_seed1.csv": "68a87b67bb32179c4ea97e59cfb0a752d44faf7b6e6d75cb30fbdba22137b21f",
        "m_0.3/series_dbcp_seed2.csv": "9a2cbad77c05186e1409a496733cb88a5a20b1fbfbbaf56f496e8a2470932a3f",
        "m_0.3/series_leach_seed1.csv": "c0a8b7bb58276e65bf4d7e3ba927579865bc32f22b84b8c62b17763e02524bca",
        "m_0.3/series_leach_seed2.csv": "2ece40b6ec776f893475590c6e32c4899a88cded79e4b03fe1300782ddc12437",
        "m_0.3/series_sep_seed1.csv": "994accc6488f4da904aee5920d4ef6a03b189d7093970fea00c333b01326ca7a",
        "m_0.3/series_sep_seed2.csv": "6404cece2146319dc256e80724d176eac7f61fbf1a7b263f0f122f52db6f5fe7",
        "m_0.3/summary.csv": "eba050111494a7cf0bb19128920b32f7d07e47dac984b821a9e2b4c8a7a393a8",
        "sweep.csv": "142bacfd6318d35ac19413d30d2545f8fd90be4946024d34395597a29f3aabfd",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    out = tmp_path / case
    assert main([*CASES[case], "--out", str(out), "--workers", "1"]) == 0
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert digests == GOLDEN[case]


RUN_CONFIGS = {"defaults": {"max_rounds": 1000}, "n10000": {"n": 10000, "max_rounds": 3}}

# (energy_dissipated_j, initial_energy_j, d_avg, mean_member_to_head_m,
#  mean_head_to_bs_m) of each run, keyed by (case, protocol, seed)
IN_MEMORY = {
    ("defaults", "leach", 1): (
        "(8.200754501307932, 75.0, 37.33946843789477, 18.712037323403177, 37.33946843789481)"
    ),
    ("defaults", "leach", 2): (
        "(8.238590288890059, 75.0, 39.08115457221654, 18.7628069746815, 39.08115457221663)"
    ),
    ("defaults", "sep", 1): (
        "(8.188706032294151, 75.0, 37.33946843789477, 18.75714546773084, 38.05278635593383)"
    ),
    ("defaults", "sep", 2): (
        "(8.298984186642558, 75.0, 39.08115457221654, 19.107715566701675, 39.07659159023867)"
    ),
    ("defaults", "dbcp", 1): (
        "(9.097842114423742, 75.0, 37.33946843789477, 22.88907108546919, 40.16404308201749)"
    ),
    ("defaults", "dbcp", 2): (
        "(8.776279239294253, 75.0, 39.08115457221654, 21.389260722243606, 40.62178507864085)"
    ),
    ("n10000", "leach", 1): (
        "(1.9451866074479984, 7500.0, 38.323956731185916, 1.5971111403156548, 38.52277718748621)"
    ),
    ("n10000", "sep", 1): (
        "(1.9449298163756896, 7500.0, 38.323956731185916, 1.5888369536907458, 38.49953047881428)"
    ),
    ("n10000", "dbcp", 1): (
        "(1.9342523248760835, 7500.0, 38.323956731185916, 2.1715636606809907, 42.36268487882174)"
    ),
}


@pytest.mark.parametrize("case, protocol, seed", sorted(IN_MEMORY))
def test_in_memory_totals_match_pins(case, protocol, seed):
    config = SimConfig(protocol=ProtocolKind(protocol), seed=seed, **RUN_CONFIGS[case])
    result = run(config)
    totals = (
        result.energy_dissipated_j,
        result.initial_energy_j,
        result.d_avg,
        result.mean_member_to_head_m,
        result.mean_head_to_bs_m,
    )
    assert repr(totals) == IN_MEMORY[(case, protocol, seed)]
