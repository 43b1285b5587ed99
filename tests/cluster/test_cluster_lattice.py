"""The cluster master's bucket passes run on ``k``'s lowest-terms lattice.

As in local KL (``tests/core/test_lattice.py``), the grid of 8 only
decides whether ``k`` is on the grid: each run's buckets use ``k``'s
reduced denominator.
"""

from __future__ import annotations

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import DistributedKL
from repro.cluster import engine as engine_module

from .test_engine import rejection_init


def test_master_buckets_at_the_reduced_scale(monkeypatch):
    """The gains exchange scales gains by ``k``'s reduced denominator:
    1 at ``k = 2``, 2 at ``k = 0.5``, 8 at ``k = 0.125``."""
    seen = []
    original = engine_module.DistributedKL._collect_pass_state

    def spy(self, k_scaled, res):
        seen.append(res)
        return original(self, k_scaled, res)

    monkeypatch.setattr(engine_module.DistributedKL, "_collect_pass_state", spy)
    graph = build_scenario(ScenarioConfig(num_legit=60, num_fakes=12, seed=3)).graph
    engine = DistributedKL(graph)
    for k, scale in ((2.0, 1), (0.5, 2), (0.125, 8)):
        seen.clear()
        engine.run(k, rejection_init(graph))
        assert seen and set(seen) == {scale}
