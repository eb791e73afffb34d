"""HPX's window draws: the in-repo Lemire rule against NumPy.

:class:`repro.sim.schedulers._BoundedDraws` reimplements
``Generator.integers(0, k)`` on the PCG64 raw stream, because NumPy
documents the bit generators' raw streams as stable across versions but
makes no such promise for ``Generator.integers``.  These tests pin the
rule against the NumPy the suite runs on, so a runner whose NumPy
changed the rule fails here rather than in a digest far downstream.
They also pin what the draw feeds: HPX's fingerprint still moves every
iteration, so HPX never takes the steady-state replay.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bench.runner import expand_grid, run_cell_config
from repro.sim.schedulers import HPXScheduler, _BoundedDraws

#: Every window HPX can draw from (k = 1 consumes no stream), plus
#: bounds whose rejection threshold is close to 2**31 (about half the
#: words rejected), 2**30 and 1.
BOUNDS = tuple(range(1, 9)) + (2**31 + 1, 3 * 2**30 + 1, 2**32 - 1,
                               1000003)


@pytest.mark.parametrize("seed", [0, 7, 2021])
def test_draws_match_generator_integers(seed):
    """>= 1e5 draws per seed with the bound changing between draws, so
    the buffered high half crosses bounds as it does in HPX's picks."""
    pick = random.Random(seed).choice
    ks = [pick(BOUNDS) for _ in range(110_000)]
    assert set(ks) == set(BOUNDS)
    want = np.random.default_rng(seed)
    draws = _BoundedDraws(np.random.default_rng(seed).bit_generator)
    got = [draws.index(k) for k in ks]
    assert got == [int(want.integers(0, k)) for k in ks]
    assert draws.position() != _BoundedDraws(
        np.random.default_rng(seed).bit_generator).position()


@pytest.mark.parametrize("k", BOUNDS)
def test_draws_match_per_bound(k):
    want = np.random.default_rng(k)
    draws = _BoundedDraws(np.random.default_rng(k).bit_generator)
    assert [draws.index(k) for _ in range(20_000)] == \
        [int(want.integers(0, k)) for _ in range(20_000)]


def test_window_of_one_consumes_nothing():
    draws = _BoundedDraws(np.random.default_rng(3).bit_generator)
    before = draws.position()
    assert [draws.index(1) for _ in range(100)] == [0] * 100
    assert draws.position() == before


def test_position_counts_the_buffered_half():
    """One draw leaves the high half buffered: the raw state alone
    would not tell that position from the one after the second draw."""
    draws = _BoundedDraws(np.random.default_rng(5).bit_generator)
    draws.index(8)
    one = draws.position()
    draws.index(8)
    assert one[0] == draws.position()[0]
    assert one != draws.position()


def test_hpx_never_replays_on_epyc_iter8(monkeypatch):
    """The ``lanczos-epyc-iter8`` cells: HPX's fingerprint differs at
    every barrier, and the grid's replayed-iteration fraction stays
    20 of 64 iterations (HPX contributing none)."""
    monkeypatch.delenv("REPRO_NO_STEADY_STATE", raising=False)
    prints = []
    original = HPXScheduler.state_fingerprint

    def spy(self):
        fp = original(self)
        prints.append(fp)
        return fp

    monkeypatch.setattr(HPXScheduler, "state_fingerprint", spy)
    cells = expand_grid(machines=["epyc"],
                        matrices=["inline1", "Queen4147"],
                        solvers=["lanczos"], iterations=8,
                        versions=("libcsb", "deepsparse", "hpx", "regent"))
    replayed = total = 0
    for c in cells:
        ss = run_cell_config(c.config()).steady_state_at
        assert ss is None or c.version != "hpx"
        replayed += 0 if ss is None else 8 - ss
        total += 8
    assert len(prints) == 2 * 8
    for cell in (prints[:8], prints[8:]):
        assert all(a != b for a, b in zip(cell, cell[1:]))
    assert replayed / total == 0.3125
