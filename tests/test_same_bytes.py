"""Same bytes: every benchmark participant at seeds 1 and 9, and the
synthetic session, replay to the pinned digests, and every participant
loads to the pinned events and intervals.

``tests/same_bytes.py`` computes the digests (and prints them when run as a
script).  A change that keeps behaviour keeps them; a change that alters
any replay's dispatch log, recognitions, last bindings or telemetry axiom
series, or any loaded event or interval, updates this pin and says why.
"""

import pytest

import same_bytes

# (workload, seed) -> one SHA-256 over every participant's replay digests
EXPECTED = {
    ("sessions", 1): "c3edfcbc044bf81e28443c7f3cecf0c67d3e72ea15b48942eeea8dca9c572af7",
    ("sessions", 9): "51ed1c1b7f214fb9ee3ef7ec0e47fab4ef9ae2757848b4ba24929b9d41f84b0d",
    ("spatial_sweep", 1): "383708fbd0e7ae0d4c876959560b662534fa476b496d668e52d2fa1a0e3cf301",
    ("spatial_sweep", 9): "bd6304c5ba64aa83128293590da29e95349bcf1ecf6f65ad443ab7870f2e7ba4",
    ("append_growth", 1): "57a6287a9a4a8957d094fcb93d0d0bdd2f772ccd59b0726c09d68a995c2cd9d8",
    ("append_growth", 9): "147677d3479c97289e1d6f0aec83e8150bc18f49fd31332c18892cfd14474587",
}
# (workload, seed) -> one SHA-256 over every participant's loaded events and intervals
EXPECTED_LOADS = {
    ("sessions", 1): "6daa285992e4771b951ea60be033407d68c675ee1ce03f98eef095af48b95b7b",
    ("sessions", 9): "c716640a3cc1bc84594f1d2ee911409673ddf4bb5fb46d4712e0ec2e3ee452c1",
    ("spatial_sweep", 1): "8840b887c63634174860d87c3eca5daca2af5f23ee4563cf0146b0c5a44c68b0",
    ("spatial_sweep", 9): "5c1545d0c75f675b53c650be49b65533266b704f27eea9fc236b72764dc55369",
    ("append_growth", 1): "af13db2191b0fd860103070604f7c118e28ab80c0527decdac793139c666fa7c",
    ("append_growth", 9): "12b12b04111a75743b938fa17e001731fdb05d7ab978d1d0969a1f94bfd60b06",
}
SYNTHETIC = "f2a949de1afcc74a643349faf6d9850bae501c802bb9cec6f65b4ae24b50834a"


@pytest.fixture(scope="module")
def workloads():
    return same_bytes.load_workloads()


def test_the_pin_covers_every_workload_at_both_seeds():
    assert set(EXPECTED) == set(EXPECTED_LOADS) == {(w, s) for w in same_bytes.WORKLOADS for s in same_bytes.SEEDS}


@pytest.mark.parametrize("workload, seed", sorted(EXPECTED))
def test_every_participant_replays_to_the_pinned_bytes(scenario, workloads, workload, seed):
    assert same_bytes.workload_digest(scenario, workloads, workload, seed) == EXPECTED[(workload, seed)]


@pytest.mark.parametrize("workload, seed", sorted(EXPECTED_LOADS))
def test_every_participant_loads_to_the_pinned_events(scenario, workloads, workload, seed):
    assert same_bytes.load_digest(scenario, workloads, workload, seed) == EXPECTED_LOADS[(workload, seed)]


def test_the_synthetic_session_replays_to_the_pinned_bytes(scenario):
    assert same_bytes.synthetic_digest(scenario) == SYNTHETIC
