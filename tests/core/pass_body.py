"""Force the pass body of the extended KL search in tests.

:func:`repro.core.kl._use_bucket` picks the body from ``k`` and the view:
the integer bucket pass on the 1/8 grid (unweighted graphs, or weighted
on an all-active view), the float heap pass otherwise. The heap pass is
the bucket pass's float oracle, so tests also run it at on-grid ``k``;
:func:`forced_body` does that by patching the rule for one block, the way
``test_matrix_pass.py`` forces ``_use_matrix``.
"""

from __future__ import annotations

import contextlib

import repro.core.kl as kl

#: The body names: ``"auto"`` leaves the rule alone.
BODIES = ("bucket", "heap", "auto")


@contextlib.contextmanager
def forced_body(body: str):
    """Run the block with every KL pass on ``body``.

    ``"bucket"`` is only meaningful where the bucket pass can run: ``k``
    on the grid, and an all-active view for weighted graphs.
    """
    if body not in BODIES:
        raise ValueError(f"unknown pass body {body!r}")
    if body == "auto":
        yield
        return
    original = kl._use_bucket
    bucket = body == "bucket"
    kl._use_bucket = lambda view, k: bucket
    try:
        yield
    finally:
        kl._use_bucket = original
