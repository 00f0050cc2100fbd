"""The paper's basic algorithms (Table 1) and emulations (Section 4).

Every problem has implementations on the locally-limited and the
globally-limited machines, structured so the Table-1 bounds are met term by
term; the benchmarks measure the separation between them.
"""

from repro.algorithms.broadcast import (
    broadcast,
    broadcast_bit_nonreceipt,
    default_branching,
)
from repro.algorithms.one_to_all import one_to_all
from repro.algorithms.prefix import reduce_all, summation, parity, prefix_sums
from repro.algorithms.list_ranking import (
    list_ranking_wyllie,
    list_ranking_contraction,
    random_list,
    sequential_ranks,
)
from repro.algorithms.sorting import (
    columnsort,
    columnsort_reference,
    choose_columns,
    local_sort_work,
)
from repro.algorithms.sample_sort import sample_sort
from repro.algorithms.qsm_on_bsp import run_qsm_program_on_bsp, SharedMemoryProxy
from repro.algorithms.h_relation import (
    realize_h_relation_crcw,
    realize_h_relation_crcw_randomized,
    crcw_max,
    bsp_lower_bound_from_crcw,
    bsp_lower_bound_from_crcw_randomized,
    bsp_lower_bound_from_crcw_deterministic,
)
from repro.algorithms.emulation import (
    grouping_emulation_time,
    PRAMTrace,
    simulate_trace_on_qsm_m,
    self_scheduling_transfer,
)
from repro.algorithms.pram_algorithms import (
    pram_prefix_sums,
    pram_wyllie_ranks,
    trace_from_run,
)
from repro.algorithms.total_exchange import (
    latin_square_schedule,
    chatting_schedule_centralized,
    chatting_schedule_distributed,
    total_exchange_lower_bound,
)

__all__ = [
    "broadcast",
    "broadcast_bit_nonreceipt",
    "default_branching",
    "one_to_all",
    "reduce_all",
    "summation",
    "parity",
    "prefix_sums",
    "list_ranking_wyllie",
    "list_ranking_contraction",
    "random_list",
    "sequential_ranks",
    "columnsort",
    "columnsort_reference",
    "choose_columns",
    "local_sort_work",
    "sample_sort",
    "run_qsm_program_on_bsp",
    "SharedMemoryProxy",
    "realize_h_relation_crcw",
    "realize_h_relation_crcw_randomized",
    "crcw_max",
    "bsp_lower_bound_from_crcw",
    "bsp_lower_bound_from_crcw_randomized",
    "bsp_lower_bound_from_crcw_deterministic",
    "grouping_emulation_time",
    "PRAMTrace",
    "simulate_trace_on_qsm_m",
    "self_scheduling_transfer",
    "latin_square_schedule",
    "chatting_schedule_centralized",
    "chatting_schedule_distributed",
    "total_exchange_lower_bound",
    "pram_prefix_sums",
    "pram_wyllie_ranks",
    "trace_from_run",
]
