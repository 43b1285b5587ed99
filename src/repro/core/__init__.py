"""Core of the reproduction: the Rejecto friend-spam detection system.

Public surface:

* :class:`AugmentedSocialGraph` — the social graph augmented with
  directed social rejections (Section III-A); a mutable *builder* that
  finalizes into the flat-array :class:`CSRGraph` via ``.csr()``.
* :class:`CSRGraph` / :class:`CSRView` / :class:`PartitionState` — the
  immutable CSR snapshot, zero-copy residual views, and the one cut
  type: sides, seed locks and the incremental MAAR cut counters every
  solver runs on and returns.
* The objective helpers — side labels, acceptance rate and
  friends-to-rejections ratio of a cut.
* :func:`extended_kl` — the paper's extension of Kernighan-Lin to
  rejection-augmented graphs (Algorithm 1); :func:`extended_kl_state`
  is the CSR-state engine entry point.
* :func:`initial_partition` — the sweep's starting cut (the one place
  :attr:`MAARConfig.init` is read).
* :func:`solve_maar` — geometric ``k`` sweep approximating the Minimum
  Aggregate Acceptance Rate cut (Theorem 1).
* :class:`Rejecto` — the iterative detector (Section IV-E) with seed
  support (Section IV-F).
"""

from .csr import (
    CSRGraph,
    CSRView,
    PartitionState,
    WeightedCSRGraph,
    resolve_backend,
)
from .gains import HeapGainIndex
from .graph import AugmentedSocialGraph, GraphError
from .kl import KLConfig, KLStats, extended_kl, extended_kl_state
from .maar import (
    KCandidate,
    MAARConfig,
    MAARResult,
    check_seeds,
    geometric_k_sequence,
    initial_partition,
    solve_maar,
    sweep_k_states,
)
from .parallel import default_jobs, fork_available, parallel_map
from .objectives import (
    LEGITIMATE,
    SUSPICIOUS,
    acceptance_rate,
    friends_to_rejections_ratio,
)
from .multilevel import (
    MultilevelConfig,
    MultilevelResult,
    solve_maar_multilevel,
)
from .rejecto import DetectedGroup, Rejecto, RejectoConfig, RejectoResult
from .forensics import DetectionForensics, GroupForensics, analyze_detection
from .responses import Action, ResponsePlan, ResponsePolicy
from .seeds import community_seeds, degree_stratified_seeds, random_seeds
from .sharding import ShardedDetectionResult, detect_over_shards
from .validation import GraphValidationError, assert_valid_graph, validate_graph

__all__ = [
    "AugmentedSocialGraph",
    "GraphError",
    "CSRGraph",
    "CSRView",
    "PartitionState",
    "WeightedCSRGraph",
    "resolve_backend",
    "LEGITIMATE",
    "SUSPICIOUS",
    "acceptance_rate",
    "friends_to_rejections_ratio",
    "HeapGainIndex",
    "KLConfig",
    "KLStats",
    "extended_kl",
    "extended_kl_state",
    "MAARConfig",
    "MAARResult",
    "KCandidate",
    "check_seeds",
    "geometric_k_sequence",
    "initial_partition",
    "solve_maar",
    "sweep_k_states",
    "default_jobs",
    "fork_available",
    "parallel_map",
    "Rejecto",
    "RejectoConfig",
    "RejectoResult",
    "DetectedGroup",
    "ShardedDetectionResult",
    "detect_over_shards",
    "Action",
    "ResponsePolicy",
    "ResponsePlan",
    "validate_graph",
    "assert_valid_graph",
    "GraphValidationError",
    "DetectionForensics",
    "GroupForensics",
    "analyze_detection",
    "random_seeds",
    "degree_stratified_seeds",
    "community_seeds",
    "MultilevelConfig",
    "MultilevelResult",
    "solve_maar_multilevel",
]
