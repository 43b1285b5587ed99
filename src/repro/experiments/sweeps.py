"""Parameter sweeps for Figures 9-15, 17, and 18.

Each function regenerates one figure's x-axis sweep and returns a
:class:`SweepResult` whose series are precision/recall values per scheme
— the same rows the paper plots. Figures 17 and 18 (appendices A and B)
repeat the sensitivity and strategy sweeps on the other six Table I
graphs.

Workload sizes default to a laptop-scale reduction of the paper's setup
(the paper: 10K-node graphs + 10K fakes; here: configurable, default
1500 + 300). Per-fake quantities (requests, rejection rates, collusion
links) are kept at paper values so crossovers land in the same places.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..attacks.scenario import ScenarioConfig, build_scenario
from ..core.parallel import parallel_map
from .runner import SchemeSetup, evaluate_schemes
from .tables import format_series

__all__ = [
    "SweepConfig",
    "SweepResult",
    "request_volume_sweep",
    "stealth_sweep",
    "spam_rejection_sweep",
    "legit_rejection_sweep",
    "collusion_sweep",
    "self_rejection_sweep",
    "legit_victim_rejection_sweep",
    "appendix_sensitivity",
    "appendix_strategies",
    "APPENDIX_DATASETS",
]

#: The six non-Facebook graphs of Table I, as used in Figs. 17 and 18.
APPENDIX_DATASETS = [
    "ca-HepTh",
    "ca-AstroPh",
    "email-Enron",
    "soc-Epinions",
    "soc-Slashdot",
    "synthetic",
]


@dataclass(frozen=True)
class SweepConfig:
    """Scale and base-scenario knobs shared by all sweeps.

    ``trials`` repeats every sweep point over consecutive seeds
    (``seed``, ``seed+1``, …) and reports the mean precision per point;
    the per-trial spread is kept in :attr:`SweepResult.spread`.
    ``jobs > 1`` fans the sweep points out to worker processes through
    :mod:`repro.core.parallel` (each point is an independent simulation,
    so this is embarrassingly parallel).
    """

    num_legit: int = 1500
    num_fakes: int = 300
    dataset: str = "facebook"
    seed: int = 7
    trials: int = 1
    jobs: int = 1
    setup: SchemeSetup = field(default_factory=SchemeSetup)

    def base_scenario(self, trial: int = 0, **overrides) -> ScenarioConfig:
        return ScenarioConfig(
            dataset=self.dataset,
            num_legit=self.num_legit,
            num_fakes=self.num_fakes,
            seed=self.seed + trial,
        ).with_overrides(**overrides)


@dataclass
class SweepResult:
    """One figure's data: x values and a precision series per scheme.

    ``series`` holds per-point mean precision over the configured
    trials; ``spread`` holds the matching max−min range per point
    (zero for single-trial runs).
    """

    figure: str
    x_label: str
    x_values: List[float]
    series: Dict[str, List[float]]
    spread: Dict[str, List[float]] = field(default_factory=dict)
    trials: int = 1

    def render(self) -> str:
        title = self.figure
        if self.trials > 1:
            title += f" (mean of {self.trials} trials)"
        return format_series(
            self.x_label, self.x_values, self.series, title=title
        )


def _evaluate_point(
    job: Tuple[ScenarioConfig, SchemeSetup], shared: object = None
) -> Dict[str, float]:
    """One (scenario, setup) evaluation — module-level so worker
    processes can unpickle and run it. ``shared`` is unused (each point
    builds its own scenario) but part of the ``parallel_map`` task
    signature."""
    scenario_config, setup = job
    scenario = build_scenario(scenario_config)
    outcome = evaluate_schemes(scenario, setup)
    return {scheme: metrics.precision for scheme, metrics in outcome.items()}


def _run_sweep(
    figure: str,
    x_label: str,
    x_values: Sequence[float],
    config: SweepConfig,
    scenario_for: Callable[..., ScenarioConfig],
) -> SweepResult:
    trials = max(1, config.trials)
    jobs = [
        (scenario_for(x, trial=trial), config.setup)
        for x in x_values
        for trial in range(trials)
    ]
    outcomes = parallel_map(_evaluate_point, jobs, jobs=config.jobs)

    series: Dict[str, List[float]] = {}
    spread: Dict[str, List[float]] = {}
    for index in range(len(x_values)):
        per_scheme: Dict[str, List[float]] = {}
        for trial in range(trials):
            outcome = outcomes[index * trials + trial]
            for scheme, precision in outcome.items():
                per_scheme.setdefault(scheme, []).append(precision)
        for scheme, values in per_scheme.items():
            series.setdefault(scheme, []).append(sum(values) / len(values))
            spread.setdefault(scheme, []).append(max(values) - min(values))
    return SweepResult(
        figure=figure,
        x_label=x_label,
        x_values=list(x_values),
        series=series,
        spread=spread,
        trials=trials,
    )


# ----------------------------------------------------------------------
# Figure 9: request volume, all fakes spamming.
# ----------------------------------------------------------------------
def request_volume_sweep(
    config: Optional[SweepConfig] = None,
    request_counts: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
) -> SweepResult:
    """Precision/recall vs requests per fake account (Fig. 9)."""
    config = config or SweepConfig()
    return _run_sweep(
        "Fig. 9 — request volume (all fakes spam)",
        "requests/fake",
        list(request_counts),
        config,
        lambda x, trial=0: config.base_scenario(trial=trial, requests_per_fake=int(x)),
    )


# ----------------------------------------------------------------------
# Figure 10: request volume, half the fakes spamming (stealth).
# ----------------------------------------------------------------------
def stealth_sweep(
    config: Optional[SweepConfig] = None,
    request_counts: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
) -> SweepResult:
    """Precision/recall vs requests per fake, half of the fakes sending
    (Fig. 10)."""
    config = config or SweepConfig()
    return _run_sweep(
        "Fig. 10 — request volume (half of the fakes spam)",
        "requests/fake",
        list(request_counts),
        config,
        lambda x, trial=0: config.base_scenario(
            trial=trial, requests_per_fake=int(x), spam_sender_fraction=0.5
        ),
    )


# ----------------------------------------------------------------------
# Figure 11: rejection rate of spam requests.
# ----------------------------------------------------------------------
def spam_rejection_sweep(
    config: Optional[SweepConfig] = None,
    rates: Sequence[float] = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95),
) -> SweepResult:
    """Precision/recall vs spam-request rejection rate (Fig. 11)."""
    config = config or SweepConfig()
    return _run_sweep(
        "Fig. 11 — rejection rate of spam requests",
        "spam rejection rate",
        list(rates),
        config,
        lambda x, trial=0: config.base_scenario(trial=trial, spam_rejection_rate=float(x)),
    )


# ----------------------------------------------------------------------
# Figure 12: rejection rate among legitimate users.
# ----------------------------------------------------------------------
def legit_rejection_sweep(
    config: Optional[SweepConfig] = None,
    rates: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
) -> SweepResult:
    """Precision/recall vs legitimate-request rejection rate, spam rate
    fixed at 0.7 (Fig. 12)."""
    config = config or SweepConfig()
    return _run_sweep(
        "Fig. 12 — rejection rate of legitimate requests",
        "legit rejection rate",
        list(rates),
        config,
        lambda x, trial=0: config.base_scenario(trial=trial, legit_rejection_rate=float(x)),
    )


# ----------------------------------------------------------------------
# Figure 13: collusion (dense intra-fake connections).
# ----------------------------------------------------------------------
def collusion_sweep(
    config: Optional[SweepConfig] = None,
    extra_links: Sequence[int] = (0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40),
) -> SweepResult:
    """Precision/recall vs accepted intra-fake requests per fake
    (Fig. 13). The per-account rejection rate falls from 70% toward ~23%
    as the extra links dilute it — Rejecto's aggregate rate is immune."""
    config = config or SweepConfig()
    return _run_sweep(
        "Fig. 13 — collusion: non-attack edges per fake",
        "extra links/fake",
        list(extra_links),
        config,
        lambda x, trial=0: config.base_scenario(trial=trial, collusion_extra_links=int(x)),
    )


# ----------------------------------------------------------------------
# Figure 14: self-rejection.
# ----------------------------------------------------------------------
def self_rejection_sweep(
    config: Optional[SweepConfig] = None,
    rates: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
) -> SweepResult:
    """Precision/recall vs self-rejection rate among fakes (Fig. 14).

    Half of the fakes are whitewashed: the other half send them requests
    rejected at the x-axis rate (Section VI-C)."""
    config = config or SweepConfig()
    return _run_sweep(
        "Fig. 14 — self-rejection among fake accounts",
        "self-rejection rate",
        list(rates),
        config,
        lambda x, trial=0: config.base_scenario(trial=trial, self_rejection_rate=float(x)),
    )


# ----------------------------------------------------------------------
# Figure 15: Sybils rejecting legitimate users' requests.
# ----------------------------------------------------------------------
def legit_victim_rejection_sweep(
    config: Optional[SweepConfig] = None,
    per_fake_rejections: Sequence[float] = (0, 1.6, 3.2, 4.8, 6.4, 8, 9.6, 11.2, 12.8, 14.4, 16),
) -> SweepResult:
    """Precision/recall vs rejections planted on legitimate users
    (Fig. 15).

    The paper's x axis is absolute (16K-160K rejections against 10K
    fakes); here it is expressed per fake (1.6-16) so the crossover —
    where the planted volume overtakes the ~14/fake legitimate-user
    rejections — lands at the same relative position at any scale."""
    config = config or SweepConfig()
    return _run_sweep(
        "Fig. 15 — rejections of legitimate requests by Sybils",
        "rejections/fake",
        list(per_fake_rejections),
        config,
        lambda x, trial=0: config.base_scenario(
            trial=trial, rejections_on_legit=int(x * config.num_fakes)
        ),
    )


# ----------------------------------------------------------------------
# Appendices A and B: the other six graphs.
# ----------------------------------------------------------------------
def appendix_sensitivity(
    config: Optional[SweepConfig] = None,
    datasets: Sequence[str] = tuple(APPENDIX_DATASETS),
    points: int = 5,
) -> Dict[str, List[SweepResult]]:
    """Fig. 17: the four sensitivity sweeps (request volume all/half,
    spam rejection rate, legit rejection rate) on each other graph."""
    config = config or SweepConfig()
    results: Dict[str, List[SweepResult]] = {}
    request_counts = _subsample((5, 10, 15, 20, 25, 30, 35, 40, 45, 50), points)
    spam_rates = _subsample((0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95), points)
    legit_rates = _subsample((0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), points)
    for dataset in datasets:
        dataset_config = replace(config, dataset=dataset)
        results[dataset] = [
            request_volume_sweep(dataset_config, request_counts),
            stealth_sweep(dataset_config, request_counts),
            spam_rejection_sweep(dataset_config, spam_rates),
            legit_rejection_sweep(dataset_config, legit_rates),
        ]
    return results


def appendix_strategies(
    config: Optional[SweepConfig] = None,
    datasets: Sequence[str] = tuple(APPENDIX_DATASETS),
    points: int = 5,
) -> Dict[str, List[SweepResult]]:
    """Fig. 18: the three strategy sweeps (collusion, self-rejection,
    rejecting legitimate requests) on each other graph."""
    config = config or SweepConfig()
    results: Dict[str, List[SweepResult]] = {}
    links = _subsample((0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40), points)
    self_rates = _subsample(
        (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95), points
    )
    per_fake = _subsample((0, 1.6, 3.2, 4.8, 6.4, 8, 9.6, 11.2, 12.8, 14.4, 16), points)
    for dataset in datasets:
        dataset_config = replace(config, dataset=dataset)
        results[dataset] = [
            collusion_sweep(dataset_config, links),
            self_rejection_sweep(dataset_config, self_rates),
            legit_victim_rejection_sweep(dataset_config, per_fake),
        ]
    return results


def _subsample(values: Sequence[float], count: int) -> List[float]:
    """Evenly pick ``count`` values (always keeping the endpoints)."""
    if count >= len(values):
        return list(values)
    if count < 2:
        return [values[0]]
    step = (len(values) - 1) / (count - 1)
    return [values[round(i * step)] for i in range(count)]
