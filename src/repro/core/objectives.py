"""Cut accounting for the MAAR objective.

Section III-A of the paper defines, for disjoint user sets ``X`` and ``Y``:

* the group friendship set ``F(X, Y)`` — friendships straddling the two
  sets (symmetric);
* the group rejection set ``R⃗⟨X, Y⟩`` — rejections cast *by* users in
  ``X`` *onto* users in ``Y`` (directional);
* the aggregate acceptance rate
  ``AC⟨X, Y⟩ = |F(Y, X)| / (|F(Y, X)| + |R⃗⟨Y, X⟩|)`` — the fraction of
  the friend requests from ``X`` to ``Y`` that were accepted.

Throughout this package, a bipartition assigns side ``1`` to the candidate
*suspicious* region ``U`` and side ``0`` to the legitimate region ``Ū``.
The MAAR cut minimizes ``AC⟨U, Ū⟩``, whose numerator counts cross-region
friendships and whose rejection term counts only the rejections cast by
side 0 onto side 1 (``R⃗⟨Ū, U⟩``) — rejections *among* the suspicious
region, or cast by it, never enter the objective. That asymmetry is what
makes the scheme collusion-resistant.

The counters themselves live on :class:`repro.core.csr.PartitionState`;
this module holds the side labels and the two cut-quality measures
computed from them. The from-scratch dict-adjacency counters the
incremental ones are property-tested against are a test oracle
(``tests/core/partition_oracle.py``).
"""

from __future__ import annotations

__all__ = [
    "acceptance_rate",
    "friends_to_rejections_ratio",
    "SUSPICIOUS",
    "LEGITIMATE",
]

#: Side label of the candidate spammer region ``U``.
SUSPICIOUS = 1
#: Side label of the legitimate region ``Ū``.
LEGITIMATE = 0


def acceptance_rate(f_cross: int, r_cross: int) -> float:
    """Aggregate acceptance rate ``AC⟨U, Ū⟩ = F / (F + R)``.

    A cut with no cross requests at all (``F + R == 0``) carries no
    evidence of spamming, so it is treated as fully accepted (rate 1.0),
    which makes it the *least* suspicious possible cut.
    """
    total = f_cross + r_cross
    if total == 0:
        return 1.0
    return f_cross / total


def friends_to_rejections_ratio(f_cross: int, r_cross: int) -> float:
    """Aggregate friends-to-rejections ratio ``|F(Ū,U)| / |R⃗⟨Ū,U⟩|``.

    Minimizing this ratio is equivalent to minimizing the aggregate
    acceptance rate (Section IV-B). Returns ``inf`` when there are no
    cross rejections, mirroring :func:`acceptance_rate`'s treatment of
    evidence-free cuts.
    """
    if r_cross == 0:
        return float("inf")
    return f_cross / r_cross

