"""A cold sweep leaves no reference cycles behind.

Everything a sweep builds — the builder's layer columns, accelerators,
blocks and their layouts, segment-cache records, reports — is freed by
reference counting when the sweep's evaluator goes. A cycle (say, a table
reachable from the specs it holds) would leave that memory to the cyclic
collector instead: held longer, and paid for in collector passes during
the next sweep.
"""

import gc

from repro import api
from repro.runtime.bench import clear_process_caches

SWEEPS = (("squeezenet", "zc706"), ("mobilenetv2", "zcu102"), ("resnet50", "vcu110"))


def test_cold_sweeps_leave_no_cyclic_garbage():
    # Imports, registry entries and graphs are built once, outside the check.
    api.sweep("squeezenet", "zc706", jobs=1)
    gc.collect()
    gc.disable()
    try:
        for model, board in SWEEPS:
            clear_process_caches()
            assert len(api.sweep(model, board, jobs=1)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()
