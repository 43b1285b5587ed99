"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.core import AugmentedSocialGraph


def random_augmented_graph(
    num_nodes: int,
    num_friendships: int,
    num_rejections: int,
    seed: int = 0,
) -> AugmentedSocialGraph:
    """A uniformly random augmented graph (may contain friend+reject pairs)."""
    rng = random.Random(seed)
    graph = AugmentedSocialGraph(num_nodes)
    attempts = 0
    while graph.num_friendships < num_friendships and attempts < num_friendships * 20:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            graph.add_friendship(u, v)
        attempts += 1
    attempts = 0
    while graph.num_rejections < num_rejections and attempts < num_rejections * 20:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            graph.add_rejection(u, v)
        attempts += 1
    return graph


@st.composite
def augmented_graphs(draw, max_nodes: int = 24, max_edges: int = 60):
    """Hypothesis strategy producing small augmented graphs."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    pair = st.tuples(
        st.integers(min_value=0, max_value=num_nodes - 1),
        st.integers(min_value=0, max_value=num_nodes - 1),
    ).filter(lambda p: p[0] != p[1])
    friendships = draw(st.lists(pair, max_size=max_edges))
    rejections = draw(st.lists(pair, max_size=max_edges))
    return AugmentedSocialGraph.from_edges(num_nodes, friendships, rejections)


@st.composite
def graphs_with_sides(draw, max_nodes: int = 24, max_edges: int = 60):
    """A small augmented graph together with a random bipartition."""
    graph = draw(augmented_graphs(max_nodes=max_nodes, max_edges=max_edges))
    sides = draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=graph.num_nodes,
            max_size=graph.num_nodes,
        )
    )
    return graph, sides


@pytest.fixture
def spam_scenario_graph():
    """A small planted friend-spam instance: 120 legit users, 30 fakes.

    Every fake sends 10 requests to random legit users; 7 are rejected
    and 3 accepted (70% spam rejection rate). Legit users form a random
    5-regular-ish friendship graph; fakes form a sparse internal mesh.
    Returns ``(graph, legit_ids, fake_ids)``.
    """
    rng = random.Random(42)
    n_legit, n_fake = 120, 30
    graph = AugmentedSocialGraph(n_legit + n_fake)
    for u in range(n_legit):
        for _ in range(5):
            v = rng.randrange(n_legit)
            if v != u:
                graph.add_friendship(u, v)
    fakes = list(range(n_legit, n_legit + n_fake))
    for f in fakes:
        for _ in range(3):
            other = fakes[rng.randrange(n_fake)]
            if other != f:
                graph.add_friendship(f, other)
    for f in fakes:
        targets = rng.sample(range(n_legit), 10)
        for t in targets[:3]:
            graph.add_friendship(f, t)
        for t in targets[3:]:
            graph.add_rejection(t, f)
    return graph, list(range(n_legit)), fakes


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``parallel_map`` start a real pool of at least 2 workers,
    whatever the host's CPU count (it caps workers at ``default_jobs()``)."""
    from repro.core import parallel

    cpus = parallel.default_jobs()
    monkeypatch.setattr(parallel, "default_jobs", lambda: max(2, cpus))
