"""Tests for the BatchEvaluator: accounting, parallelism, persistence."""

import json

import pytest

from repro.core.architectures import build_template
from repro.runtime import BatchEvaluator, LRUCache


@pytest.fixture(scope="module")
def context(roomy_board):
    from tests.conftest import build_tiny_cnn

    cnn = build_tiny_cnn()
    return cnn, roomy_board


@pytest.fixture(scope="module")
def specs(context):
    cnn, _board = context
    conv_specs = cnn.conv_specs()
    return [build_template("segmented", conv_specs, n) for n in (2, 3, 4, 5)]


class TestAccounting:
    def test_first_batch_all_misses(self, context, specs):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        reports = evaluator.evaluate_specs(specs)
        assert all(report is not None for report in reports)
        stats = evaluator.last_run
        assert stats.submitted == len(specs)
        assert stats.evaluations == len(specs)
        assert stats.cache_hits == 0
        assert stats.elapsed_seconds > 0.0

    def test_second_batch_all_hits(self, context, specs):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        first = evaluator.evaluate_specs(specs)
        second = evaluator.evaluate_specs(specs)
        stats = evaluator.last_run
        assert stats.evaluations == 0
        assert stats.memory_hits == len(specs)
        assert stats.hit_rate == 1.0
        # cache hits return the very same objects
        assert all(a is b for a, b in zip(first, second))

    def test_duplicates_within_batch_counted_as_hits(self, context, specs):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        doubled = list(specs) + list(specs)
        reports = evaluator.evaluate_specs(doubled)
        stats = evaluator.last_run
        assert stats.submitted == 2 * len(specs)
        assert stats.evaluations == len(specs)
        assert stats.memory_hits == len(specs)
        assert reports[: len(specs)] == reports[len(specs) :]

    def test_totals_accumulate(self, context, specs):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        evaluator.evaluate_specs(specs)
        evaluator.evaluate_specs(specs)
        assert evaluator.totals.submitted == 2 * len(specs)
        assert evaluator.totals.evaluations == len(specs)
        assert evaluator.totals.cache_hits == len(specs)

    def test_infeasible_recorded_with_reason(self, context):
        from repro.hw.boards import FPGABoard

        cnn, _board = context
        # 4 PEs cannot host 8 CEs: building this design must fail cleanly
        starved = FPGABoard(
            name="starved", dsp_count=4, bram_bytes=4 * 1024, bandwidth_gbps=0.1
        )
        evaluator = BatchEvaluator(cnn, starved)
        bad = build_template("segmented", cnn.conv_specs(), 8)
        [entry] = evaluator.stream([bad])
        assert entry.report is None
        assert "8 CEs exceed" in entry.reason
        assert evaluator.last_run.infeasible == 1

    def test_non_resource_errors_propagate(self, context):
        from repro.core.notation import parse_notation
        from repro.utils.errors import NotationError

        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        # Covers only 4 of the 8 conv layers: a caller error, not an
        # infeasible design — it must raise, never be cached as a skip.
        with pytest.raises(NotationError):
            evaluator.evaluate_specs([parse_notation("{L1-L4: CE1}")])

    def test_stream_yields_in_request_order(self, context, specs):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        items = list(evaluator.stream(specs))
        assert [item.index for item in items] == list(range(len(specs)))
        assert [item.spec for item in items] == list(specs)


class TestParallel:
    def test_parallel_equals_serial(self, context, specs):
        cnn, board = context
        serial = BatchEvaluator(cnn, board, jobs=1).evaluate_specs(specs)
        with BatchEvaluator(cnn, board, jobs=2) as evaluator:
            parallel = evaluator.evaluate_specs(specs)
        assert parallel == serial  # deep dataclass equality, bit-identical

    def test_parallel_results_feed_cache(self, context, specs):
        cnn, board = context
        with BatchEvaluator(cnn, board, jobs=2) as evaluator:
            evaluator.evaluate_specs(specs)
            evaluator.evaluate_specs(specs)
            assert evaluator.last_run.memory_hits == len(specs)

    def test_jobs_zero_means_cpu_count(self, context):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board, jobs=0)
        assert evaluator.jobs >= 1

    def test_rejects_negative_jobs(self, context):
        cnn, board = context
        with pytest.raises(ValueError):
            BatchEvaluator(cnn, board, jobs=-1)


class TestDiskPersistence:
    def test_cold_start_reads_disk(self, context, specs, tmp_path):
        cnn, board = context
        cache_dir = tmp_path / "cache"
        first = BatchEvaluator(cnn, board, cache_dir=cache_dir)
        warm = first.evaluate_specs(specs)
        assert first.last_run.evaluations == len(specs)

        second = BatchEvaluator(cnn, board, cache_dir=cache_dir)
        cold = second.evaluate_specs(specs)
        assert second.last_run.evaluations == 0
        assert second.last_run.disk_hits == len(specs)
        assert cold == warm

    def test_disk_entries_are_sharded_json(self, context, specs, tmp_path):
        cnn, board = context
        cache_dir = tmp_path / "cache"
        BatchEvaluator(cnn, board, cache_dir=cache_dir).evaluate_specs(specs)
        files = list(cache_dir.glob("*/*.json"))
        assert len(files) == len(specs)
        assert all(len(path.parent.name) == 2 for path in files)

    def test_contexts_do_not_collide(self, context, specs, tmp_path, small_board):
        cnn, board = context
        cache_dir = tmp_path / "cache"
        BatchEvaluator(cnn, board, cache_dir=cache_dir).evaluate_specs(specs)
        other = BatchEvaluator(cnn, small_board, cache_dir=cache_dir)
        other.evaluate_specs(specs)
        # same specs, different board: nothing may come back from disk
        assert other.last_run.disk_hits == 0

    def test_bad_entries_are_recomputed_and_overwritten(self, context, specs, tmp_path):
        cnn, board = context
        cold = BatchEvaluator(cnn, board).evaluate_specs(specs)
        cache_dir = tmp_path / "cache"
        seeding = BatchEvaluator(cnn, board, cache_dir=cache_dir)
        seeding.evaluate_specs(specs)
        keys = [seeding.key_for(spec) for spec in specs]
        paths = [cache_dir / key[:2] / f"{key}.json" for key in keys]
        paths[0].write_text("[]")
        paths[1].write_text(json.dumps({"format": 1, "key": keys[1], "report": {}}))
        paths[2].write_bytes(paths[3].read_bytes())  # another design's entry

        evaluator = BatchEvaluator(cnn, board, cache_dir=cache_dir)
        assert evaluator.evaluate_specs(specs) == cold
        assert evaluator.last_run.evaluations == 3
        assert evaluator.last_run.disk_hits == 1
        again = BatchEvaluator(cnn, board, cache_dir=cache_dir)
        assert again.evaluate_specs(specs) == cold
        assert again.last_run.disk_hits == len(specs)


class TestSharedMemory:
    def test_evaluators_share_one_lru_without_collisions(self, context, specs, small_board):
        cnn, board = context
        memory = LRUCache(max_entries=64)
        first = BatchEvaluator(cnn, board, jobs=1, memory=memory)
        other = BatchEvaluator(cnn, small_board, jobs=1, memory=memory)
        reports = first.evaluate_specs(specs)
        # Same specs, another board: none of the first context's entries.
        assert other.evaluate_specs(specs) == BatchEvaluator(
            cnn, small_board, jobs=1
        ).evaluate_specs(specs)
        assert other.last_run.memory_hits == 0
        assert len(memory) == 2 * len(specs)
        # A new evaluator of the first context starts warm.
        again = BatchEvaluator(cnn, board, jobs=1, memory=memory)
        assert again.evaluate_specs(specs) == reports
        assert again.last_run.memory_hits == len(specs)


class TestAutoJobs:
    """``jobs="auto"``: serial on small hosts/batches, identical results."""

    def test_default_is_auto(self, context):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        assert evaluator.cache_info()["jobs"] == "auto"

    def test_explicit_jobs_reported_as_int(self, context):
        cnn, board = context
        assert BatchEvaluator(cnn, board, jobs=1).cache_info()["jobs"] == 1

    def test_rejects_unknown_string(self, context):
        cnn, board = context
        with pytest.raises(ValueError):
            BatchEvaluator(cnn, board, jobs="turbo")

    def test_single_cpu_never_forks(self, context, monkeypatch):
        import repro.runtime.batch as batch_module

        monkeypatch.setattr(batch_module.os, "cpu_count", lambda: 1)
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        assert evaluator._effective_jobs(10_000) == 1

    def test_small_batches_never_fork(self, context, monkeypatch):
        import repro.runtime.batch as batch_module

        monkeypatch.setattr(batch_module.os, "cpu_count", lambda: 8)
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        assert evaluator._effective_jobs(0) == 1
        assert evaluator._effective_jobs(batch_module.AUTO_FORK_MIN_MISSES - 1) == 1

    def test_large_batches_fork_bounded_by_cpus(self, context, monkeypatch):
        import repro.runtime.batch as batch_module

        monkeypatch.setattr(batch_module.os, "cpu_count", lambda: 4)
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        jobs = evaluator._effective_jobs(10_000)
        assert 2 <= jobs <= 4

    def test_explicit_jobs_bypass_heuristic(self, context, monkeypatch):
        import repro.runtime.batch as batch_module

        monkeypatch.setattr(batch_module.os, "cpu_count", lambda: 8)
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board, jobs=2)
        assert evaluator._effective_jobs(1) == 2

    def test_auto_results_match_serial(self, context, specs):
        cnn, board = context
        serial = BatchEvaluator(cnn, board, jobs=1).evaluate_specs(specs)
        with BatchEvaluator(cnn, board) as evaluator:
            auto = evaluator.evaluate_specs(specs)
        assert auto == serial
        assert evaluator.last_run.jobs >= 1


class TestMissPath:
    """Every fingerprint miss is built and costed by one PopulationKernel."""

    @staticmethod
    def _spy(evaluator, monkeypatch):
        calls = []
        kernel = evaluator._kernel
        original = kernel.evaluate

        def evaluate(specs):
            calls.append(list(specs))
            return original(specs)

        monkeypatch.setattr(kernel, "evaluate", evaluate)
        return calls

    def test_inline_batch_is_one_kernel_call(self, context, specs, monkeypatch):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board, jobs=1)
        calls = self._spy(evaluator, monkeypatch)
        reports = evaluator.evaluate_specs(specs)
        assert calls == [list(specs)]
        assert reports == BatchEvaluator(cnn, board, jobs=1).evaluate_specs(specs)

    def test_single_miss_goes_through_kernel(self, context, specs, monkeypatch):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board, jobs=1)
        calls = self._spy(evaluator, monkeypatch)
        assert evaluator.evaluate_specs([specs[0]])[0] is not None
        assert calls == [[specs[0]]]

    def test_hits_and_duplicates_never_reach_kernel(self, context, specs, monkeypatch):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board, jobs=1)
        calls = self._spy(evaluator, monkeypatch)
        evaluator.evaluate_specs(list(specs) + list(specs))
        assert calls == [list(specs)]  # duplicates within the batch: once
        evaluator.evaluate_specs(specs)
        assert len(calls) == 1  # all fingerprint hits

    def test_cache_info_has_no_kernel_keys(self, context, specs):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board, jobs=1)
        evaluator.evaluate_specs(specs)
        assert set(evaluator.cache_info()) == {
            "memory_entries",
            "memory_hits",
            "memory_misses",
            "jobs",
        }

    def test_worker_state_is_one_kernel(self, context, monkeypatch):
        from repro.core.cost.vector import PopulationKernel
        from repro.hw.datatypes import DEFAULT_PRECISION
        from repro.runtime import batch

        cnn, board = context
        monkeypatch.setattr(batch, "_WORKER_KERNEL", None)
        batch._worker_init(cnn, board, DEFAULT_PRECISION)
        kernel = batch._WORKER_KERNEL
        assert isinstance(kernel, PopulationKernel)
        # Built at start-up, before the worker's first task.
        assert kernel.builder.context == BatchEvaluator(cnn, board).context

    def test_worker_entries_match_inline(self, context, specs, monkeypatch):
        from repro.hw.boards import FPGABoard
        from repro.runtime import batch

        cnn, _board = context
        starved = FPGABoard(
            name="starved", dsp_count=4, bram_bytes=4 * 1024, bandwidth_gbps=0.1
        )
        mixed = [build_template("segmented", cnn.conv_specs(), n) for n in (8, 2)]
        inline = BatchEvaluator(cnn, starved, jobs=1)
        monkeypatch.setattr(batch, "_WORKER_KERNEL", None)
        batch._worker_init(cnn, starved, inline.precision)
        for spec in mixed:
            entry = batch._worker_evaluate(spec)
            [expected] = inline.stream([spec])
            assert entry.report == expected.report
            assert entry.reason == expected.reason
        assert batch._worker_evaluate(mixed[0]).reason.startswith("ResourceError: ")


class TestSegmentCacheShim:
    """``segment_cache_entries`` survives only for callers that pass 0."""

    def test_zero_is_accepted(self, context, specs):
        cnn, board = context
        shimmed = BatchEvaluator(cnn, board, jobs=1, segment_cache_entries=0)
        assert shimmed.evaluate_specs(specs) == BatchEvaluator(
            cnn, board, jobs=1
        ).evaluate_specs(specs)
        assert "segment_cache" not in shimmed.cache_info()

    @pytest.mark.parametrize("entries", [1, 8192, -1])
    def test_other_values_name_the_removal(self, context, entries):
        cnn, board = context
        with pytest.raises(ValueError, match="segment cache has been removed"):
            BatchEvaluator(cnn, board, segment_cache_entries=entries)
