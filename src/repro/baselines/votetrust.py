"""VoteTrust [35] — the paper's comparison system (Section VI).

VoteTrust ranks users on the directed friend-request graph in two steps:

1. **Vote assignment** — a PageRank-like computation over request edges
   seeded at trusted users assigns each user a number of *votes*. Fake
   accounts attract few organic requests, so their votes are low — but
   the paper notes this is manipulable, since attackers can request
   among themselves [18].
2. **Vote aggregation** — each user's *rating* is the weighted average
   of the responses (1 = accepted, 0 = rejected) that his outgoing
   requests received; the weight of the request to target ``w`` is
   ``votes(w) · rating(w)``, so being accepted by well-voted, well-rated
   users counts for more. Ratings are computed iteratively because they
   appear in their own weights.

The lowest-rated users are declared suspicious. Exactly this two-step
design is what Section VI shows to be fragile under collusion (weights
among fakes rise together) and to *benefit* from self-rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..attacks.requests import RequestLog
from .linalg import resolve_backend

__all__ = ["VoteTrustConfig", "VoteTrustResult", "VoteTrust"]


@dataclass(frozen=True)
class VoteTrustConfig:
    """VoteTrust parameters.

    ``damping``/``vote_iterations`` drive the PageRank-like vote
    assignment; ``rating_iterations`` drives the aggregation;
    ``default_rating`` is assigned to users who never sent a request
    (no evidence, treated as legitimate-looking).

    ``prior_weight``/``prior_rating`` smooth the aggregation with a
    pseudo-observation worth ``prior_weight`` mean-vote-weighted
    accepted requests: a legitimate user with one or two sporadic
    rejections is pulled toward the prior instead of collapsing to a
    zero rating, while a spammer's 20 mostly-rejected requests swamp
    it. Without smoothing the scheme misranks low-activity legitimate
    users far below the paper's reported accuracy.

    ``vote_floor`` gives every response a baseline voting capacity of
    ``vote_floor`` times the mean vote, on top of the propagated votes —
    every OSN user can respond to requests, not only those reachable
    from the trust seeds. The floor is also what makes VoteTrust exhibit
    its documented collusion sensitivity (Fig. 13): intra-fake accepted
    responses carry this baseline weight, so dense collusion inflates
    colluders' ratings — exactly the manipulability the paper points out
    (its [18]: PageRank-style scores can be gamed by accounts requesting
    among themselves).

    ``backend`` selects the pure-Python dict loops (``"python"``) or the
    scipy-sparse / numpy implementation of both steps (``"numpy"``,
    agrees to numerical precision, much faster on large request logs);
    ``"auto"`` resolves like the other propagation baselines
    (:func:`repro.baselines.linalg.resolve_backend`).
    """

    damping: float = 0.85
    vote_iterations: int = 30
    rating_iterations: int = 10
    default_rating: float = 1.0
    prior_weight: float = 5.0
    prior_rating: float = 1.0
    vote_floor: float = 1.0
    backend: str = "python"


@dataclass
class VoteTrustResult:
    """Votes, ratings, and the derived suspicious ranking."""

    votes: Dict[int, float]
    ratings: Dict[int, float]

    def ranked_suspicious(self) -> List[int]:
        """All users, most suspicious first.

        Primary key: ascending rating (low acceptance of one's requests);
        secondary: ascending votes (few organic incoming requests);
        ternary: node id, for determinism.
        """
        return sorted(
            self.ratings,
            key=lambda u: (self.ratings[u], self.votes.get(u, 0.0), u),
        )

    def most_suspicious(self, count: int) -> List[int]:
        """The ``count`` users with the lowest ratings."""
        return self.ranked_suspicious()[:count]


class VoteTrust:
    """The VoteTrust fake-account detector.

    Operates on a :class:`repro.attacks.requests.RequestLog` — the
    directed friend-request graph with responses — plus a set of trusted
    seed users for the vote assignment.
    """

    def __init__(self, config: Optional[VoteTrustConfig] = None) -> None:
        self.config = config or VoteTrustConfig()

    # ------------------------------------------------------------------
    # Step 1: PageRank-like vote assignment.
    # ------------------------------------------------------------------
    def assign_votes(
        self,
        num_users: int,
        log: RequestLog,
        trusted_seeds: Sequence[int],
    ) -> Dict[int, float]:
        """Votes via damped power iteration along request edges.

        Trust is injected at the seeds and flows along each request
        ``u → v`` in proportion to ``u``'s out-degree; the total vote
        mass is ``num_users``, mirroring PageRank with a personalized
        restart vector.
        """
        if not trusted_seeds:
            raise ValueError("vote assignment needs at least one trusted seed")
        config = self.config
        backend = resolve_backend(config.backend)
        seed_share = num_users / len(trusted_seeds)
        restart = {seed: seed_share for seed in trusted_seeds}
        if backend == "numpy":
            from .linalg import damped_propagate, request_transition_matrix

            final = damped_propagate(
                request_transition_matrix(num_users, log),
                restart,
                config.damping,
                config.vote_iterations,
            )
            # Same key set as the dict loop: every node holding vote
            # mass, plus the restart nodes (whose mass can only vanish
            # at damping=1).
            return {
                u: float(final[u])
                for u in range(num_users)
                if final[u] > 0.0 or u in restart
            }
        out_edges: Dict[int, List[int]] = {}
        for request in log:
            out_edges.setdefault(request.sender, []).append(request.target)
        votes = dict(restart)
        for _ in range(config.vote_iterations):
            incoming: Dict[int, float] = {}
            for sender, targets in out_edges.items():
                mass = votes.get(sender, 0.0)
                if not mass:
                    continue
                share = mass / len(targets)
                for target in targets:
                    incoming[target] = incoming.get(target, 0.0) + share
            votes = {
                u: (1 - config.damping) * restart.get(u, 0.0)
                + config.damping * incoming.get(u, 0.0)
                for u in set(restart) | set(incoming)
            }
        return votes

    # ------------------------------------------------------------------
    # Step 2: iterative vote aggregation.
    # ------------------------------------------------------------------
    def aggregate_ratings(
        self,
        num_users: int,
        log: RequestLog,
        votes: Dict[int, float],
    ) -> Dict[int, float]:
        """Ratings as vote-weighted acceptance averages of sent requests."""
        config = self.config
        backend = resolve_backend(config.backend)
        mean_vote = sum(votes.values()) / len(votes) if votes else 0.0
        prior_mass = config.prior_weight * mean_vote
        floor = config.vote_floor * mean_vote
        if backend == "numpy":
            return self._aggregate_ratings_numpy(
                num_users, log, votes, prior_mass, floor
            )
        out_requests = log.out_requests()
        ratings = {u: config.default_rating for u in range(num_users)}
        for _ in range(config.rating_iterations):
            updated = dict(ratings)
            for sender, requests in out_requests.items():
                numerator = prior_mass * config.prior_rating
                denominator = prior_mass
                for request in requests:
                    weight = (votes.get(request.target, 0.0) + floor) * ratings.get(
                        request.target, config.default_rating
                    )
                    denominator += weight
                    if request.accepted:
                        numerator += weight
                if denominator > 0:
                    updated[sender] = numerator / denominator
            ratings = updated
        return ratings

    def _aggregate_ratings_numpy(
        self,
        num_users: int,
        log: RequestLog,
        votes: Dict[int, float],
        prior_mass: float,
        floor: float,
    ) -> Dict[int, float]:
        """Vectorized aggregation: one scatter-add per Jacobi sweep.

        Mirrors the dict loop exactly — all senders update
        simultaneously from the previous sweep's ratings — so the two
        backends agree to summation-order precision.
        """
        import numpy as np

        config = self.config
        senders = np.frombuffer(log.senders, dtype=np.int64)
        targets = np.frombuffer(log.targets, dtype=np.int64)
        accepted = np.frombuffer(log.accepted, dtype=bool)
        votes_vector = np.zeros(num_users)
        for u, mass in votes.items():
            votes_vector[u] = mass
        base_weight = votes_vector[targets] + floor
        has_requests = np.zeros(num_users, dtype=bool)
        has_requests[senders] = True
        ratings = np.full(num_users, config.default_rating)
        for _ in range(config.rating_iterations):
            weight = base_weight * ratings[targets]
            denominator = np.full(num_users, prior_mass)
            np.add.at(denominator, senders, weight)
            numerator = np.full(num_users, prior_mass * config.prior_rating)
            np.add.at(numerator, senders, np.where(accepted, weight, 0.0))
            update = has_requests & (denominator > 0)
            updated = ratings.copy()
            updated[update] = numerator[update] / denominator[update]
            ratings = updated
        return {u: float(ratings[u]) for u in range(num_users)}

    # ------------------------------------------------------------------
    # End to end.
    # ------------------------------------------------------------------
    def rank(
        self,
        num_users: int,
        log: RequestLog,
        trusted_seeds: Sequence[int],
    ) -> VoteTrustResult:
        """Run both steps and return the full result."""
        votes = self.assign_votes(num_users, log, trusted_seeds)
        ratings = self.aggregate_ratings(num_users, log, votes)
        return VoteTrustResult(votes=votes, ratings=ratings)

    def detect(
        self,
        num_users: int,
        log: RequestLog,
        trusted_seeds: Sequence[int],
        suspicious_count: int,
    ) -> List[int]:
        """The ``suspicious_count`` lowest-rated users (the paper's
        evaluation declares as many suspicious users as injected fakes)."""
        return self.rank(num_users, log, trusted_seeds).most_suspicious(
            suspicious_count
        )
