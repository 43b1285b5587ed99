"""Rejecto — combating friend spam using social rejections.

A from-scratch Python reproduction of the ICDCS 2015 paper: the
rejection-augmented social graph, the extended Kernighan-Lin MAAR cut
solver, the iterative Rejecto detector, the VoteTrust and SybilRank
comparison systems, an attack/workload simulator, a Spark-like
mini-cluster substrate, and an experiment harness regenerating every
figure and table of the paper's evaluation.

Quickstart::

    from repro import Rejecto, RejectoConfig
    from repro.attacks import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(num_legit=2000, num_fakes=400))
    result = Rejecto(RejectoConfig()).detect(scenario.graph)
    print(scenario.precision_recall(result.detected(limit=400)))
"""

from .core import (
    AugmentedSocialGraph,
    KLConfig,
    MAARConfig,
    Rejecto,
    RejectoConfig,
    RejectoResult,
    extended_kl,
    solve_maar,
)

__version__ = "1.0.0"

__all__ = [
    "AugmentedSocialGraph",
    "KLConfig",
    "MAARConfig",
    "Rejecto",
    "RejectoConfig",
    "RejectoResult",
    "extended_kl",
    "solve_maar",
    "__version__",
]
