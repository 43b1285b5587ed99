"""The directed friend-request log.

The augmented social graph keeps only the *outcome* of requests
(friendships and rejections); the direction of accepted requests is
erased by the undirected friendship edge. VoteTrust [35], however, ranks
users on the *directed friend-request graph*, so the simulators record
every request — sender, target, and response — into a
:class:`RequestLog` that the scenario builder exposes alongside the
graph.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["FriendRequest", "RequestLog"]


@dataclass(frozen=True)
class FriendRequest:
    """One friend request and its response."""

    sender: int
    target: int
    accepted: bool


class RequestLog:
    """Append-only log of friend requests.

    Duplicate (sender, target) pairs are kept: a user may re-request
    after a rejection, and VoteTrust's vote aggregation weighs each
    response.

    Stored as three columns, one entry per request: ``senders`` and
    ``targets`` (``array("q")``) and ``accepted`` (``array("b")``, 0 or
    1). :class:`FriendRequest` objects are made only when the log is
    iterated; batch readers take the columns with ``np.frombuffer``.
    """

    __slots__ = ("senders", "targets", "accepted")

    def __init__(self) -> None:
        self.senders = array("q")
        self.targets = array("q")
        self.accepted = array("b")

    def record(self, sender: int, target: int, accepted: bool) -> None:
        """Append one request outcome (ids must fit in int64)."""
        self.senders.append(sender)
        try:
            self.targets.append(target)
        except (OverflowError, TypeError):
            self.senders.pop()
            raise
        self.accepted.append(bool(accepted))

    def __len__(self) -> int:
        return len(self.senders)

    def __iter__(self) -> Iterator[FriendRequest]:
        return map(FriendRequest, self.senders, self.targets, map(bool, self.accepted))

    @property
    def num_accepted(self) -> int:
        return self.accepted.count(1)

    @property
    def num_rejected(self) -> int:
        return len(self) - self.num_accepted

    def out_requests(self) -> Dict[int, List[FriendRequest]]:
        """Requests grouped by sender."""
        grouped: Dict[int, List[FriendRequest]] = {}
        for request in self:
            grouped.setdefault(request.sender, []).append(request)
        return grouped

    def edge_counts(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Per (sender, target) pair: (accepted_count, rejected_count)."""
        counts: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for request in self:
            accepted, rejected = counts.get((request.sender, request.target), (0, 0))
            if request.accepted:
                accepted += 1
            else:
                rejected += 1
            counts[(request.sender, request.target)] = (accepted, rejected)
        return counts

    def to_augmented_graph(self, num_users: Optional[int] = None):
        """Materialize the rejection-augmented graph the log implies.

        Accepted requests become friendships; rejected requests become
        rejection edges ``⟨target, sender⟩``. This is the operator
        pipeline's entry point: a logged request stream (e.g. loaded via
        :func:`repro.io.load_request_log`) in, a detectable graph out.

        ``num_users`` defaults to ``max id + 1`` over the log.

        On the numpy backend the result is a CSR-first builder
        (:meth:`AugmentedSocialGraph._from_edge_arrays`): its CSR is
        packed from the columns in batch, so ``.csr()``, the edge counts
        and the ``repr`` cost nothing, and its lists and edge sets are
        filled, equal to the loop's, when one of them is first read. A
        log the loop below would refuse (a self-request, a negative id,
        an id at or above ``num_users``) runs the loop, so its
        :class:`~repro.core.graph.GraphError` names the same request.
        """
        from ..core.csr import resolve_backend
        from ..core.graph import AugmentedSocialGraph

        if resolve_backend("auto") == "numpy":
            graph = self._to_augmented_graph_numpy(num_users)
            if graph is not None:
                return graph
        if num_users is None:
            num_users = 1 + max(
                max(self.senders, default=-1), max(self.targets, default=-1)
            )
        graph = AugmentedSocialGraph(num_users)
        for request in self:
            if request.accepted:
                graph.add_friendship(request.sender, request.target)
            else:
                graph.add_rejection(request.target, request.sender)
        return graph

    def _to_augmented_graph_numpy(self, num_users: Optional[int]):
        """The batch builder, or ``None`` when the loop must run."""
        import numpy as np

        from ..core.csr import _MAX_KEYED_NODES
        from ..core.graph import AugmentedSocialGraph

        senders = np.frombuffer(self.senders, dtype=np.int64)
        targets = np.frombuffer(self.targets, dtype=np.int64)
        accepted = np.frombuffer(self.accepted, dtype=bool)
        if num_users is None:
            num_users = 1 + int(max(senders.max(), targets.max())) if len(self) else 0
        if not 0 <= num_users <= _MAX_KEYED_NODES or (
            senders.size
            and (
                min(senders.min(), targets.min()) < 0
                or max(senders.max(), targets.max()) >= num_users
                or (senders == targets).any()
            )
        ):
            return None
        pairs = np.column_stack((senders, targets))
        return AugmentedSocialGraph._from_edge_arrays(
            num_users, pairs[accepted], pairs[~accepted][:, ::-1]
        )
