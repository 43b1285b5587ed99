"""Shared machinery for running detection schemes over scenarios.

Every figure of the evaluation compares Rejecto against VoteTrust under
one scenario family; this module runs both (plus the naive filter, for
ablations) with the paper's protocol: each scheme declares exactly as
many suspicious accounts as the number of injected fakes, making
precision equal recall (Section VI-A).
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..attacks.scenario import Scenario
from ..baselines.rejection_filter import naive_rejection_filter
from ..baselines.votetrust import VoteTrust, VoteTrustConfig
from ..core.maar import MAARConfig
from ..core.rejecto import Rejecto, RejectoConfig
from ..metrics.detection import DetectionMetrics

__all__ = [
    "SchemeSetup",
    "load_graph_source",
    "run_rejecto",
    "run_votetrust",
    "run_naive_filter",
    "evaluate_schemes",
]


def _sniff_format(path: Path) -> str:
    """Classify an on-disk graph: ``"snapshot"`` (binary magic),
    ``"augmented"`` (F/R edge lines), or ``"snap"`` (plain edge list)."""
    from ..core.storage import MAGIC

    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return "snapshot"
    text_opener = (lambda p: gzip.open(p, "rt")) if path.suffix == ".gz" else open
    with text_opener(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            token = line.split(None, 1)[0]
            return "augmented" if token in ("F", "R") else "snap"
    return "snap"


def load_graph_source(
    source: Union[str, Path],
    as_csr: bool = True,
    mode: str = "mmap",
    cache: bool = False,
):
    """Open a graph from any of the on-disk forms the repo reads.

    The format is sniffed, not guessed from the extension: a binary
    snapshot (``repro.core.storage`` magic) is memory-mapped — the
    cold-start-free path the experiment drivers prefer; an ``F``/``R``
    augmented edge-line file goes through
    :func:`repro.io.load_augmented_graph`; anything else parses as a
    SNAP edge list (``.gz`` transparently), with ``cache=True`` packing
    it once into the loader's content-hash cache. Snapshot sources are
    always CSR; text sources honour ``as_csr``.
    """
    source = Path(source)
    kind = _sniff_format(source)
    if kind == "snapshot":
        from ..core.csr import CSRGraph

        return CSRGraph.open(source, mode=mode)
    if kind == "augmented":
        from ..io import load_augmented_graph

        return load_augmented_graph(source, as_csr=as_csr)
    from ..graphgen.loaders import load_snap_edgelist

    return load_snap_edgelist(
        source, as_csr=as_csr, cache=cache and as_csr
    )


@dataclass(frozen=True)
class SchemeSetup:
    """Per-scheme knobs shared across an experiment.

    ``num_trusted_seeds`` feeds VoteTrust's vote assignment;
    ``rejecto_legit_seeds``/``rejecto_spammer_seeds`` pin nodes in
    Rejecto's KL search. Both schemes get seed knowledge because the
    paper assumes OSN providers know a small set of inspected users
    (Section III-B) and pre-places them to rule out the problematic
    legitimate-region cuts (Section IV-F). ``k_steps`` bounds Rejecto's
    ``k`` sweep; ``jobs`` fans that sweep out to worker processes
    through :mod:`repro.core.parallel` inside every detection round
    (results are bit-identical to the serial sweep).
    """

    num_trusted_seeds: int = 20
    rejecto_legit_seeds: int = 30
    rejecto_spammer_seeds: int = 0
    k_steps: int = 10
    max_rounds: int = 25
    jobs: int = 1
    votetrust: VoteTrustConfig = field(default_factory=VoteTrustConfig)


def run_rejecto(
    scenario: Scenario, setup: Optional[SchemeSetup] = None
) -> DetectionMetrics:
    """Rejecto with the paper's termination: cut until the estimated
    spammer count (= injected fakes) is reached, then trim."""
    setup = setup or SchemeSetup()
    declared = len(scenario.fakes)
    legit_seeds: Sequence[int] = ()
    spammer_seeds: Sequence[int] = ()
    if setup.rejecto_legit_seeds or setup.rejecto_spammer_seeds:
        legit_seeds, spammer_seeds = scenario.sample_seeds(
            setup.rejecto_legit_seeds, setup.rejecto_spammer_seeds
        )
    config = RejectoConfig(
        maar=MAARConfig(k_steps=setup.k_steps, jobs=setup.jobs),
        estimated_spammers=declared,
        max_rounds=setup.max_rounds,
    )
    result = Rejecto(config).detect(
        scenario.graph, legit_seeds=legit_seeds, spammer_seeds=spammer_seeds
    )
    return scenario.precision_recall(result.detected(limit=declared))


def run_votetrust(
    scenario: Scenario, setup: Optional[SchemeSetup] = None
) -> DetectionMetrics:
    """VoteTrust declaring the ``|fakes|`` lowest-rated users suspicious."""
    setup = setup or SchemeSetup()
    declared = len(scenario.fakes)
    trusted_seeds, _ = scenario.sample_seeds(setup.num_trusted_seeds, 0)
    detected = VoteTrust(setup.votetrust).detect(
        scenario.num_nodes, scenario.request_log, trusted_seeds, declared
    )
    return scenario.precision_recall(detected)


def run_naive_filter(scenario: Scenario) -> DetectionMetrics:
    """The per-user rejection-rate filter (ablation only)."""
    detected = naive_rejection_filter(scenario.graph, len(scenario.fakes))
    return scenario.precision_recall(detected)


def evaluate_schemes(
    scenario: Scenario,
    setup: Optional[SchemeSetup] = None,
    include_naive: bool = False,
) -> Dict[str, DetectionMetrics]:
    """Run the figure's scheme pair (plus optionally the naive filter)."""
    results = {
        "Rejecto": run_rejecto(scenario, setup),
        "VoteTrust": run_votetrust(scenario, setup),
    }
    if include_naive:
        results["NaiveFilter"] = run_naive_filter(scenario)
    return results
