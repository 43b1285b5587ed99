"""Deleted settings stay deleted.

The pass body, the bucket grid, the coarse sweep's KL settings and the
coarsening limits follow from the inputs or are module constants, so
none of them is a config field any more. Passing one to its config's
constructor is a ``TypeError``, not a silently ignored value.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.core import KLConfig, MAARConfig
from repro.core.multilevel import MultilevelConfig

DELETED = [
    (KLConfig, "gain_index", "heap"),
    (KLConfig, "resolution", 8),
    (MAARConfig, "kl", KLConfig()),
    (MultilevelConfig, "max_passes", 30),
    (MultilevelConfig, "matching_rounds", 8),
    (MultilevelConfig, "min_shrink", 0.05),
    (MultilevelConfig, "refine_tolerance", 0.0),
    (ClusterConfig, "resolution", 8),
]


@pytest.mark.parametrize(
    "config,field,value",
    DELETED,
    ids=[f"{config.__name__}.{field}" for config, field, _ in DELETED],
)
def test_deleted_field_is_a_type_error(config, field, value):
    with pytest.raises(TypeError, match=field):
        config(**{field: value})
