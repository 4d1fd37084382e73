"""Device ids that differ from list positions.

Every solver works on arrays indexed by position and reports NOMA pairings
by device id.  Relabelling the devices must therefore change the ids in the
pairing and nothing else.
"""

from dataclasses import replace

import pytest

from flmar import Weights, brute_force_oracle, optimize, random_baseline

from conftest import make_scenario

W = Weights(0.5, 0.5, 0.5)
IDS = [7, 3, 9, 1]
GAINS = [2e-9, 5e-10, 1e-9, 3e-9]
FRAMES = [30, 20, 50, 40]


def relabel(scn, ids):
    return replace(
        scn, devices=[replace(d, id=uid) for d, uid in zip(scn.devices, ids)]
    )


def first(scn, n):
    n_channels = n // 2 if scn.scheme == "noma" else None
    return replace(scn, devices=scn.devices[:n], n_channels=n_channels)


def solve_all(scn, n_oracle):
    return [
        optimize(scn, W),
        random_baseline(scn, W, seed=11),
        brute_force_oracle(first(scn, n_oracle), W),
    ]


@pytest.mark.parametrize("scheme, n_oracle", [("fdma", 3), ("noma", 2)])
def test_relabelled_twin_gives_identical_objectives(scheme, n_oracle):
    twin = make_scenario(GAINS, scheme=scheme, frames=FRAMES)
    scn = relabel(twin, IDS)
    to_new = dict(zip(range(len(IDS)), IDS))
    for ref, got, instance in zip(
        solve_all(twin, n_oracle), solve_all(scn, n_oracle),
        (scn, scn, first(scn, n_oracle)),
    ):
        assert got.objective == ref.objective
        assert got.allocation.validate(instance) == []
        if scheme == "noma":
            expected = tuple(
                (to_new[s], to_new[w]) for s, w in ref.allocation.pairing.channels
            )
            assert got.allocation.pairing.channels == expected


def test_noma_pairing_labels_by_id():
    scn = relabel(make_scenario(GAINS, scheme="noma", frames=FRAMES), IDS)
    report = optimize(scn, W)
    # gains by id: 1 -> 3e-9, 7 -> 2e-9, 9 -> 1e-9, 3 -> 5e-10
    assert report.allocation.pairing.channels == ((1, 3), (7, 9))


def test_equal_gains_pair_the_lower_id_first():
    scn = relabel(make_scenario([1e-9, 1e-9], scheme="noma", frames=[30, 20]), [7, 3])
    for report in (optimize(scn, W), random_baseline(scn, W, seed=3),
                   brute_force_oracle(scn, W)):
        assert report.allocation.pairing.channels == ((3, 7),)
        assert report.allocation.validate(scn) == []
