"""Same bytes: every benchmark participant at seeds 1 and 9, and the
synthetic session, replay to the pinned digests.

``tests/same_bytes.py`` computes the digests (and prints them when run as a
script).  A change that keeps behaviour keeps them; a change that alters
any replay's dispatch log, recognitions, last bindings or telemetry axiom
series updates this pin and says why.
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
SYNTHETIC = "f2a949de1afcc74a643349faf6d9850bae501c802bb9cec6f65b4ae24b50834a"


@pytest.fixture(scope="module")
def workloads():
    return same_bytes.load_workloads()


def test_the_pin_covers_every_workload_at_both_seeds():
    assert set(EXPECTED) == {(w, s) for w in same_bytes.WORKLOADS for s in same_bytes.SEEDS}


@pytest.mark.parametrize("workload, seed", sorted(EXPECTED))
def test_every_participant_replays_to_the_pinned_bytes(scenario, workloads, workload, seed):
    assert same_bytes.workload_digest(scenario, workloads, workload, seed) == EXPECTED[(workload, seed)]


def test_the_synthetic_session_replays_to_the_pinned_bytes(scenario):
    assert same_bytes.synthetic_digest(scenario) == SYNTHETIC
