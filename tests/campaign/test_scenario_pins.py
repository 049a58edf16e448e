"""Every built-in scenario, pinned: ``--tiny`` result and traced spans.

Each of the registered scenarios runs at its ``--tiny`` parameters,
seeded exactly as the campaign executor seeds a job.  The sha256 of the
result dict (sorted-key JSON) is pinned, and so is the sha256 over the
``Timeline.canonical_bytes()`` of every session an
:class:`~repro.obs.ObsCapture` observes during a second, captured run
(``None`` for scenarios that build no session).  A change that moves any
simulated event of any scenario moves a digest here; so does a walk that
diverges from the generator reference (the table is checked on both).
"""

import hashlib
import json

import pytest

from repro.campaign.executor import _seed_rngs
from repro.campaign.planner import job_seed
from repro.campaign.registry import BUILTIN_SCENARIOS, get_scenario
from repro.obs import ObsCapture

#: name -> (sha256 of the result JSON, sha256 over observed timelines).
PINNED = {
    "accumulate": ("e2443a85f6fa736f5936781011f48e1160dabe517698309a45ed6b7de5ef4b8b",
        "53513858325528d1f596c8a2a8df8b5fccd4100296947f6c19e02d4d4790005f"),
    "apps_matching": ("76259b4b0a2b3256670e89e2477602c6b380f2a3430ed9c5fb4a025f9e385ddd",
        None),
    "broadcast": ("ae56f8d43754fe5533333281afd69efdbf5b4f095aaa5ba3d87aa6ad4e319450",
        "07fd6c4891aaeb17251399c35ff1101848d667ae025c0d1b943b8cc0668b3f3d"),
    "burst_under_flap": ("54f92bf5524182cd5028f4a65e03c8468323cb06c0dc9c86f539e544ec7f679b",
        "b19cc41d858c4bc950b13474b87be6ef371ffc2a3510adf16dcf9d25f279281f"),
    "bursting_load": ("899ce5d7b1d11e39dd0f61bb5bb4a125883aa2d33a1c6e05d274ca7eb36b8db6",
        "e1df50edecedfdf63ab7f6efabbe333657a3418c52f5397ece56a125720521a7"),
    "congested_tenants": ("8318bcb5aa4b9b1b2fb84f275c10c78bff4f4a27036dc85bac3383f7e00c215a",
        "15f9dca1bb6210a5374ef6288cae3d557918b9b39058c820d6560b3fb3ccd7f4"),
    "datatype_recv": ("0a773a9effc68ac9b6d1ef502d28c3769e7cdfa112662c9d641716233b4f5943",
        "87f5e07fff49fd927d8335b2a3eb141ddc84ea6915813d6cd73028046993de6d"),
    "ftbcast_faults": ("8776473b71d4ef763ea124fa49de4604a37026736bba950ae0277f754660ae32",
        "cd8a07a890c3fd16b8d9ce1b1c065c632d42120bb4e75c93e9c7b0c4a6c0a8a4"),
    "incast_load": ("1a861832c9727b3a499fdf9874cbf7c1daea11e8a448c1f0eeac4bc788a54bc9",
        "aa652cf48e5776229e5844976639676aba3b503bddce3adbd092173c9c36f03d"),
    "incast_transient": ("473e4d0d79326042579b7cc5bedc3e28bcb25edd839b84bc524aeea41fbe77cc",
        "5a50f419470412d13dad7fb8182af627ae2e14b0af99b9fb78744ea6e29a19e0"),
    "kv_serving": ("f65e2b98e269a4cb6c53319cc93e4b77254f87d678a1662d1d5e93f135069140",
        "55165cb0af39e15e63868cc5961c10dd92fb61c70558a8f7d3199f31c13e366c"),
    "kvstore_insert": ("55218e8b8fb0178d1dc8a3709b4cd7c23bcc774c2a97a604c015472c00bafd9b",
        "9058d6a6c7adecb7caa27ebff7fb99c183390c52ef7078ca88526c77c7bb10c0"),
    "kvstore_load": ("efc8a283b0a2bc11ef412bdef7c378b710267f4d7033339d8fbf42dfdc998c7e",
        "2143a8f47f4ff31cba3a09319626f8064f3c775790fbe669322830ba9bf5f80f"),
    "linerate": ("1305f38f437777477d857fd4fa2ef1430058f61cebe34b38fb516f56ac43c8f2",
        None),
    "link_flap_recovery": ("9cc844077b4eeba01895753d64b91b9b034d681cdac28e16c2f65385468c1566",
        "ffdc1b1eeea25c26c4667b72094c4414d849314e76076fb8fe322a6dbcca7824"),
    "lossy_pingpong": ("f346ce9a16f584b7d552660623bda28ed61eb3ce636999196f98c217a3a7af68",
        "3fa75e2ebd4d0c5cfa1049797a782ede259ed7bd2c87c0da7bc99cfaf1efc959"),
    "mixed_tenants": ("19f6347b0f6b88d0969312f52a884719e6fa9fc3f000ebcff96401a611373056",
        "492416ffdb2f3b4224655a78b18dd21ab6483c8e75645ff0149d4db2c1144a4f"),
    "permutation_traffic": ("ebeed84f12defebe87c565de33cddfe36c5f202e85e63444417a607beb19ef08",
        "88e28574ffa66596142c7638fc7a37528c079e830a7a9ab334d43fb92e2a371e"),
    "pingpong": ("881da1745f38982791d78cc0ac4a31aa238bf36f0f3fbac329d6c3678334da66",
        "2ee36b60453fc3e594a0ba6e18c14e11ee318dc6b03053385e52dead1aec4a60"),
    "pingpong_open_load": ("d0efaed24347b1d7fb18dcbc7a4fbbc6c00972c22f52793e8014e30be05a0aa3",
        "c3030a0da8f8ee865fd0dee4d9b8756bc92835a727365f9a2de16962b408f85b"),
    "raid_update": ("c5318927bc5ccf9e1629c5e97d59e34d53f8b1be2e312444781458163195891e",
        None),
    "replay_trace": ("ee7130bf43747dc7fcfee8eb3847b809747e6ab9696c3d4659ae2732b82bc0c2",
        "b0eb6efe9a00e3529a731e5dd883ae3286815e36cde69b6081e706dff2d83ce1"),
    "spc_replay": ("e456079bb4c65e39044714c877eabab27445cb7c93c596d2ced1b12454f5bbb4",
        None),
    "tenant_overload": ("3fe919b816fffef89d2b2de9d07729c7bae532cbb6bbd69bd7a7dc40cefc997c",
        "dfc455c1c14625bdb6ef0d3ef878a67130f152fe4531722d1bec4587f61ff4fe"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scenario_digests(name: str) -> tuple:
    """(result digest, timeline digest or None) of one ``--tiny`` run."""
    sc = get_scenario(name)
    params = sc.resolve(sc.tiny)
    seed = job_seed(name, params)
    _seed_rngs(seed)
    result = sc.fn(**params)
    result_sha = _sha(json.dumps(result, sort_keys=True).encode())
    _seed_rngs(seed)
    with ObsCapture() as cap:
        traced = sc.fn(**params)
    assert traced == result, f"{name}: observing the run changed its result"
    if not cap.observers:
        return result_sha, None
    timelines = hashlib.sha256()
    for observer in cap.observers:
        timelines.update(observer.timeline.canonical_bytes())
    return result_sha, timelines.hexdigest()


def test_table_covers_every_builtin_scenario():
    assert sorted(PINNED) == sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("walk", ("chains", "reference"))
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_scenario_matches_pinned_digests(select_walk, name, walk):
    select_walk(walk == "reference")
    assert scenario_digests(name) == PINNED[name]
