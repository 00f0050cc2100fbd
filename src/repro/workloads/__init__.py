"""Workload generators: unbalanced h-relations and arrival traces.

Section 6 motivates skew with "irregular applications": skewed inputs,
data already local, joins producing uneven intermediate results, nested
parallelism spawning uneven task counts.  The generators here produce the
corresponding communication patterns, all as :class:`HRelation` instances.
"""

from repro.workloads.applications import (
    matrix_transpose_relation,
    block_remap_relation,
    task_spawn_relation,
    relation_to_trace,
)
from repro.workloads.io import save_relation, load_relation
from repro.workloads.relations import (
    HRelation,
    balanced_h_relation,
    permutation_relation,
    one_to_all_relation,
    all_to_one_relation,
    total_exchange_relation,
    uniform_random_relation,
    zipf_h_relation,
    geometric_h_relation,
    two_class_relation,
    variable_length_relation,
    build_relation,
)

__all__ = [
    "HRelation",
    "balanced_h_relation",
    "permutation_relation",
    "one_to_all_relation",
    "all_to_one_relation",
    "total_exchange_relation",
    "uniform_random_relation",
    "zipf_h_relation",
    "geometric_h_relation",
    "two_class_relation",
    "variable_length_relation",
    "build_relation",
    "matrix_transpose_relation",
    "block_remap_relation",
    "task_spawn_relation",
    "relation_to_trace",
    "save_relation",
    "load_relation",
]
