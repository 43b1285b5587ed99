"""Frozen end-to-end multilevel and Dinkelbach-polish outcomes, as hashes.

Each multilevel case runs :func:`~repro.core.multilevel.solve_maar_multilevel`
on a planted scenario and hashes ``(suspicious, k, acceptance_rate,
level_sizes, refine_detail)``: the detection, the ratio the final
polish settled on, and every level's refinement tallies (scope,
frontier size, regions, rounds, moves, tested). The configurations cover
the default, early exit (``refine_tolerance > 0``), exhaustive region
passes (``refine_stall=None``), a deeper hierarchy, and seeded runs
whose locked nodes coarsen as singletons.

Each flat case runs :func:`~repro.core.maar.solve_maar` with
``refine_rounds`` on and hashes every ``per_k`` entry, the winning ``k``
and rate and the detection. The cases are chosen so that the polish
*accepts* at least one round (``k`` ends off the grid), which
``test_parity.REFINED_PER_K`` does not pin: there the single round is
rejected.

The hashes were captured while multilevel still ran its own inline
polish loop, so they pin the shared polish helper to it. Both backends
must reproduce every hash.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.core.maar import MAARConfig, solve_maar
from repro.core.multilevel import MultilevelConfig, solve_maar_multilevel

from .test_weighted_parity import BACKENDS

#: ``name -> ((num_legit, num_fakes, seed), config overrides, seeded)``.
MULTILEVEL_CASES = {
    "default_300": ((300, 60, 0), {}, False),
    "default_900": ((900, 180, 7), {}, False),
    "deep_400": ((400, 80, 1), {"coarsest_nodes": 80}, False),
    "deep_600": ((600, 120, 2), {"coarsest_nodes": 80}, False),
    "tolerance_600": (
        (600, 120, 2),
        {"coarsest_nodes": 100, "refine_tolerance": 0.2},
        False,
    ),
    "tolerance_900": (
        (900, 180, 7),
        {"coarsest_nodes": 100, "refine_tolerance": 1.0},
        False,
    ),
    "no_stall_400": ((400, 80, 3), {"refine_stall": None}, False),
    "no_stall_900": ((900, 180, 7), {"refine_stall": None}, False),
    "seeded_400": ((400, 80, 1), {"coarsest_nodes": 80}, True),
    "seeded_900": ((900, 180, 7), {}, True),
}

#: ``name -> ((num_legit, num_fakes, seed), MAARConfig overrides,
#: seeded)``. ``test_maar.spam_graph``'s coarse grid is not here: its
#: polish round ties the grid cut and is rejected.
POLISH_CASES = {
    "scenario_coarse_grid": (
        (400, 80, 1),
        {"k_factor": 16.0, "k_steps": 2, "refine_rounds": 4},
        False,
    ),
    "scenario_default_grid": ((400, 80, 1), {"refine_rounds": 2}, False),
    "scenario_factor_4": (
        (400, 80, 1),
        {"k_factor": 4.0, "k_steps": 5, "refine_rounds": 4},
        False,
    ),
    "seeded_coarse_grid": (
        (900, 180, 7),
        {"k_factor": 16.0, "k_steps": 2, "refine_rounds": 3},
        True,
    ),
    "seeded_default_grid": ((400, 80, 3), {"refine_rounds": 2}, True),
}

FROZEN_MULTILEVEL = {
    "default_300": "cb3d35f195fcffc1",
    "default_900": "f2510a27ddde6f71",
    "deep_400": "afcb9f44c5d01408",
    "deep_600": "2f3b5b5433fb33ae",
    "tolerance_600": "d58d867098d840ee",
    "tolerance_900": "97b74894dea4c8d2",
    "no_stall_400": "0614b69c0ed38805",
    "no_stall_900": "efd25ca5464ef9f8",
    "seeded_400": "b5589e33c1df0794",
    "seeded_900": "6b552223dc378617",
}

FROZEN_POLISH = {
    "scenario_coarse_grid": "4af8d4ef9dda2081",
    "scenario_default_grid": "ef6fb1a15707c95a",
    "scenario_factor_4": "5ceb6df0a4db7607",
    "seeded_coarse_grid": "9f2770f3c9ea43cf",
    "seeded_default_grid": "0e4d250daa751e65",
}


@lru_cache(maxsize=None)
def _scenario(num_legit: int, num_fakes: int, seed: int):
    return build_scenario(
        ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes, seed=seed)
    )


def _seeds(scenario, seed: int):
    """A few legitimate and spammer seeds drawn from the planted truth."""
    rng = random.Random(seed)
    fakes = sorted(scenario.fakes)
    legit = sorted(set(range(scenario.graph.num_nodes)) - set(fakes))
    return sorted(rng.sample(legit, 8)), sorted(rng.sample(fakes, 4))


def _plain(value):
    """Numbers as Python ``int``/``float`` so the repr is backend-free."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return float(value) if isinstance(value, float) else int(value)


def _digest(signature) -> str:
    return hashlib.sha256(repr(_plain(signature)).encode()).hexdigest()[:16]


def multilevel_hash(name: str, backend: str) -> str:
    (num_legit, num_fakes, seed), overrides, seeded = MULTILEVEL_CASES[name]
    scenario = _scenario(num_legit, num_fakes, seed)
    legit, spammers = _seeds(scenario, seed) if seeded else ((), ())
    result = solve_maar_multilevel(
        scenario.graph.csr(backend),
        MultilevelConfig(backend=backend, **overrides),
        legit_seeds=legit,
        spammer_seeds=spammers,
    )
    return _digest(
        (
            result.suspicious,
            None if result.k is None else float(result.k),
            float(result.acceptance_rate),
            result.level_sizes,
            result.timings["refine_detail"],
        )
    )


def polish_hash(name: str, backend: str) -> str:
    (num_legit, num_fakes, seed), overrides, seeded = POLISH_CASES[name]
    scenario = _scenario(num_legit, num_fakes, seed)
    legit, spammers = _seeds(scenario, seed) if seeded else ((), ())
    result = solve_maar(
        scenario.graph.csr(backend),
        MAARConfig(**overrides),
        legit_seeds=legit,
        spammer_seeds=spammers,
    )
    # The polish accepted a round: the winning k is off the grid.
    assert result.k not in MAARConfig(**overrides).k_values()
    return _digest(
        (
            [
                (c.k, c.f_cross, c.r_cross, c.suspicious_size, c.valid)
                for c in result.per_k
            ],
            result.k,
            result.acceptance_rate,
            result.suspicious_nodes(),
        )
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(MULTILEVEL_CASES))
def test_multilevel_frozen(name, backend):
    assert multilevel_hash(name, backend) == FROZEN_MULTILEVEL[name]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(POLISH_CASES))
def test_flat_polish_frozen(name, backend):
    assert polish_hash(name, backend) == FROZEN_POLISH[name]


def test_cases_cover_every_frozen_entry():
    assert sorted(FROZEN_MULTILEVEL) == sorted(MULTILEVEL_CASES)
    assert sorted(FROZEN_POLISH) == sorted(POLISH_CASES)
