"""Export cost reports to JSON/CSV for downstream tooling.

A real DSE workflow dumps thousands of evaluations for plotting and
post-processing; these helpers give the reports a stable, documented
serialized form.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.core.cost.results import (
    AccessBreakdown,
    BlockEvaluation,
    CostReport,
    SegmentCost,
)
from repro.rules.schema import Verdict

#: Columns of the CSV export, in order.
CSV_COLUMNS = [
    "accelerator",
    "model",
    "board",
    "notation",
    "latency_ms",
    "throughput_fps",
    "buffer_mib",
    "access_mib",
    "weight_access_mib",
    "fm_access_mib",
    "pe_utilization",
    "fits_onchip",
    "total_pes",
]


def report_to_dict(report: CostReport) -> Dict[str, Any]:
    """Full JSON-compatible dump of one report, segments included.

    The ``verdicts`` key appears only when rule verdicts are attached, so
    rules-off dumps (runtime caches, golden files, checkpoints) keep their
    historical byte layout.
    """
    payload = {
        "accelerator": report.accelerator_name,
        "model": report.model_name,
        "board": report.board_name,
        "notation": report.notation,
        "clock_hz": report.clock_hz,
        "latency_cycles": report.latency_cycles,
        "latency_ms": report.latency_ms,
        "throughput_interval_cycles": report.throughput_interval_cycles,
        "throughput_fps": report.throughput_fps,
        "buffer_requirement_bytes": report.buffer_requirement_bytes,
        "buffer_allocated_bytes": report.buffer_allocated_bytes,
        "access_bytes": {
            "weights": report.accesses.weight_bytes,
            "fms": report.accesses.fm_bytes,
            "total": report.accesses.total_bytes,
        },
        "total_pes": report.total_pes,
        "pe_utilization": report.pe_utilization,
        "fits_onchip": report.fits_onchip,
        "blocks": [
            {
                "name": block.name,
                "kind": block.kind,
                "pe_count": block.pe_count,
                "latency_cycles": block.latency_cycles,
                "throughput_interval_cycles": block.throughput_interval_cycles,
                "buffer_requirement_bytes": block.buffer_requirement_bytes,
                "buffer_allocated_bytes": block.buffer_allocated_bytes,
                "access_bytes": {
                    "weights": block.accesses.weight_bytes,
                    "fms": block.accesses.fm_bytes,
                },
            }
            for block in report.blocks
        ],
        "segments": [
            {
                "index": segment.index,
                "label": segment.label,
                "block": block_index,
                "layers": list(segment.layer_indices),
                "compute_cycles": segment.compute_cycles,
                "memory_cycles": segment.memory_cycles,
                "weight_access_bytes": segment.accesses.weight_bytes,
                "fm_access_bytes": segment.accesses.fm_bytes,
                "pe_count": segment.pe_count,
                "macs": segment.macs,
                "buffer_requirement_bytes": segment.buffer_requirement_bytes,
                "utilization": segment.utilization,
            }
            for block_index, block in enumerate(report.blocks)
            for segment in block.segments
        ],
    }
    if report.verdicts:
        payload["verdicts"] = [verdict.to_dict() for verdict in report.verdicts]
    return payload


def report_to_json(report: CostReport, indent: int = 2) -> str:
    """One report as a JSON document."""
    return json.dumps(report_to_dict(report), indent=indent)


@dataclass(frozen=True)
class RawJSON:
    """JSON text that :func:`dump_json` writes where this value stands."""

    text: str


def report_json(report: CostReport) -> RawJSON:
    """One report's compact JSON text, ``json.dumps(report_to_dict(report))``:
    the form a cache entry, a checkpoint and a reply embed."""
    return RawJSON(json.dumps(report_to_dict(report)))


#: What :func:`dump_json` encodes in place of each raw value before it
#: splits the text there.
_SPLICE_MARK = "\x00RawJSON\x00"
_SPLICE_TEXT = json.dumps(_SPLICE_MARK)


def dump_json(value: Any) -> str:
    """``json.dumps(value)``, with each :class:`RawJSON`'s text put in where
    it stands, at any depth.

    Byte for byte what ``json.dumps`` gives when each raw value is the
    object its text was dumped from with ``json.dumps``'s default
    separators. The raw values are encoded as a marker string and the text
    is split at the markers, so in a value holding raw texts a plain
    string that encodes like the marker raises ``ValueError`` instead of
    taking a raw text's place.
    """
    texts: List[str] = []

    def mark(raw: Any) -> str:
        if not isinstance(raw, RawJSON):
            raise TypeError(f"Object of type {type(raw).__name__} is not JSON serializable")
        texts.append(raw.text)
        return _SPLICE_MARK

    encoded = json.dumps(value, default=mark)
    if not texts:
        return encoded
    parts = encoded.split(_SPLICE_TEXT)
    if len(parts) != len(texts) + 1:
        raise ValueError(f"a string in the value encodes like the splice marker {_SPLICE_MARK!r}")
    spliced = [parts[0]]
    for text, part in zip(texts, parts[1:]):
        spliced += (text, part)
    return "".join(spliced)


def _segment_from_dict(data: Dict[str, Any]) -> SegmentCost:
    return SegmentCost(
        index=data["index"],
        label=data["label"],
        layer_indices=tuple(data["layers"]),
        compute_cycles=data["compute_cycles"],
        memory_cycles=data["memory_cycles"],
        accesses=AccessBreakdown(
            weight_bytes=data["weight_access_bytes"],
            fm_bytes=data["fm_access_bytes"],
        ),
        pe_count=data["pe_count"],
        macs=data["macs"],
        buffer_requirement_bytes=data["buffer_requirement_bytes"],
    )


def report_from_dict(data: Dict[str, Any]) -> CostReport:
    """Rebuild a :class:`CostReport` from a :func:`report_to_dict` dump.

    The inverse of :func:`report_to_dict`; powers the runtime's on-disk
    evaluation cache. Derived quantities (FPS, utilization, ...) are
    recomputed from the stored primaries, not read back.
    """
    segments_by_block: Dict[int, List[SegmentCost]] = {}
    for segment_data in data["segments"]:
        segments_by_block.setdefault(segment_data["block"], []).append(
            _segment_from_dict(segment_data)
        )
    blocks = tuple(
        BlockEvaluation(
            name=block_data["name"],
            kind=block_data["kind"],
            segments=tuple(segments_by_block.get(block_index, ())),
            latency_cycles=block_data["latency_cycles"],
            throughput_interval_cycles=block_data["throughput_interval_cycles"],
            accesses=AccessBreakdown(
                weight_bytes=block_data["access_bytes"]["weights"],
                fm_bytes=block_data["access_bytes"]["fms"],
            ),
            buffer_requirement_bytes=block_data["buffer_requirement_bytes"],
            buffer_allocated_bytes=block_data["buffer_allocated_bytes"],
            pe_count=block_data["pe_count"],
        )
        for block_index, block_data in enumerate(data["blocks"])
    )
    return CostReport(
        accelerator_name=data["accelerator"],
        model_name=data["model"],
        board_name=data["board"],
        clock_hz=data["clock_hz"],
        latency_cycles=data["latency_cycles"],
        throughput_interval_cycles=data["throughput_interval_cycles"],
        buffer_requirement_bytes=data["buffer_requirement_bytes"],
        buffer_allocated_bytes=data["buffer_allocated_bytes"],
        accesses=AccessBreakdown(
            weight_bytes=data["access_bytes"]["weights"],
            fm_bytes=data["access_bytes"]["fms"],
        ),
        blocks=blocks,
        total_pes=data["total_pes"],
        fits_onchip=data["fits_onchip"],
        notation=data["notation"],
        verdicts=tuple(
            Verdict.from_dict(verdict) for verdict in data.get("verdicts", ())
        ),
    )


def report_from_json(text: str) -> CostReport:
    """Rebuild a report from its :func:`report_to_json` document."""
    return report_from_dict(json.loads(text))


def _csv_row(report: CostReport) -> List[Any]:
    mib = 1024 * 1024
    return [
        report.accelerator_name,
        report.model_name,
        report.board_name,
        report.notation,
        round(report.latency_ms, 4),
        round(report.throughput_fps, 2),
        round(report.buffer_requirement_bytes / mib, 4),
        round(report.accesses.total_bytes / mib, 4),
        round(report.accesses.weight_bytes / mib, 4),
        round(report.accesses.fm_bytes / mib, 4),
        round(report.pe_utilization, 4),
        report.fits_onchip,
        report.total_pes,
    ]


def reports_to_csv(reports: Sequence[CostReport]) -> str:
    """Many reports as a CSV table (header + one row each)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        writer.writerow(_csv_row(report))
    return buffer.getvalue()


def batch_latency_seconds(report: CostReport, batch: int) -> float:
    """Per-image latency for a batch of ``batch`` inputs.

    The paper's second latency definition (Section IV-A1): total time for
    a batch divided by the batch size. Under coarse-grained pipelining the
    first image pays the full pipeline latency and each subsequent image
    one initiation interval.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    total_cycles = report.latency_cycles + (batch - 1) * report.throughput_interval_cycles
    return total_cycles / (batch * report.clock_hz)
