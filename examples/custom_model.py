#!/usr/bin/env python3
"""Custom workloads: evaluate a user-defined CNN on a user-defined board.

The workload registry makes models and boards *data*: a CNN described as a
JSON document (the ``repro.cnn.serialize`` schema — the "DAG" input of the
paper's Fig. 3) and an FPGA described by its three resource budgets can be
registered at runtime and flow through every layer of the system — the
cached batch runtime, sweeps, DSE campaigns, and the HTTP service — exactly
like the built-in Table III / Table II workloads.

Run:  python examples/custom_model.py
"""

from repro import evaluate, register_board, register_model, sweep
from repro import unregister_board, unregister_model
from repro.workloads import available_models

# A small edge CNN in the JSON dict schema (this could equally live in a
# .json file and be registered with `repro models register edge_net.json`,
# `repro evaluate --model-file edge_net.json ...`, or POST /models).
EDGE_NET = {
    "name": "edge_net",
    "layers": [
        {"name": "input", "kind": "input", "shape": [64, 64, 3]},
        {"name": "conv1", "kind": "conv", "inputs": ["input"],
         "input_shape": [64, 64, 3], "filters": 16, "kernel_size": [3, 3],
         "strides": [2, 2], "padding": "same"},
        {"name": "conv2", "kind": "conv", "inputs": ["conv1"],
         "input_shape": [32, 32, 16], "filters": 32, "kernel_size": [3, 3],
         "strides": [1, 1], "padding": "same"},
        {"name": "conv2_dw", "kind": "dwconv", "inputs": ["conv2"],
         "input_shape": [32, 32, 32], "kernel_size": [3, 3],
         "strides": [2, 2], "padding": "same"},
        {"name": "conv3", "kind": "conv", "inputs": ["conv2_dw"],
         "input_shape": [16, 16, 32], "filters": 64, "kernel_size": [1, 1],
         "strides": [1, 1], "padding": "same"},
        {"name": "conv4", "kind": "conv", "inputs": ["conv3"],
         "input_shape": [16, 16, 64], "filters": 64, "kernel_size": [3, 3],
         "strides": [2, 2], "padding": "same"},
        {"name": "gap", "kind": "global_pool", "inputs": ["conv4"],
         "input_shape": [8, 8, 64]},
        {"name": "fc", "kind": "dense", "inputs": ["gap"],
         "input_shape": [1, 1, 64], "units": 10},
    ],
}

# A hypothetical edge FPGA: DSPs, BRAM, bandwidth — plus an optional
# precision restriction validated against the library's datatypes.
EDGE_BOARD = {
    "name": "edge_fpga",
    "dsp_count": 360,
    "bram_mib": 1.5,
    "bandwidth_gbps": 4.2,
    "clock_mhz": 150,
    "supported_precisions": ["int8", "int16"],
}


def main() -> None:
    model = register_model(EDGE_NET)
    board = register_board(EDGE_BOARD)
    print(f"registered model {model!r} and board {board!r}")
    print(f"models now: {', '.join(available_models())}")

    # Registered names work everywhere a zoo/Table II name does.
    report = evaluate(model, board, "segmentedrr", ce_count=2)
    print()
    print(report.summary())
    print(f"notation:   {report.notation}")
    print(f"throughput: {report.throughput_fps:.1f} FPS")

    # ... including the paper's architecture x CE-count sweep.
    results = sweep(model, board, ce_counts=range(2, 5))
    print()
    print(f"sweep: {len(results)} feasible, {len(results.skipped)} skipped")
    best = max(results, key=lambda item: item.throughput_fps)
    print(f"best:  {best.accelerator_name} at {best.throughput_fps:.1f} FPS")

    # Registrations are plain data; remove them when done.
    unregister_model(model)
    unregister_board(board)


if __name__ == "__main__":
    main()
