"""Tests for the off-chip access equations (Eqs. 6 and 7)."""

import pytest

from repro.core.cost.accesses import pipelined_weight_traffic, single_ce_traffic
from repro.core.cost.terms import LayerColumns, LayerTerms
from repro.core.engine import ComputeEngine
from tests.core.test_parallelism import make_spec


@pytest.fixture()
def engine():
    return ComputeEngine.fitted("CE1", 32, [make_spec()])


def traffic(specs, engine, budget, precision):
    """Eq. 6 ``(weight, ifm, ofm)`` bytes of ``specs`` on ``engine``."""
    columns = LayerColumns(specs, precision)
    rows = slice(None)
    terms = columns.single_ce_terms(rows, columns.weights_tiles(rows, engine))
    return single_ce_traffic(terms, budget)


def total_bytes(layers):
    return sum(map(sum, layers))


#: A layer whose live OFM (1000 bytes) fits no budget below it, so the
#: next layer finds its IFM off-chip.
SPILLING = LayerTerms(
    weights=1, ifm=1, ofm=1000, live_ofm=1000, weights_tile=1, ifm_band=1, ofm_row=1
)


class TestSingleCEAccesses:
    def test_huge_buffer_reaches_minimum(self, engine, precision):
        # The Section IV-A2 floor: one access per weight, no FM traffic.
        specs = [make_spec(index=i) for i in range(3)]
        minimum = sum(s.weight_count for s in specs) * precision.weight_bytes
        assert total_bytes(traffic(specs, engine, 10**9, precision)) == minimum

    def test_small_buffer_costs_more(self, engine, precision):
        specs = [make_spec(k=64, h=16, w=16, index=i) for i in range(3)]
        roomy = total_bytes(traffic(specs, engine, 10**9, precision))
        tight = total_bytes(traffic(specs, engine, 4096, precision))
        assert tight > roomy

    def test_monotone_in_buffer(self, engine, precision):
        specs = [make_spec(k=64, h=16, w=16, index=i) for i in range(4)]
        previous = None
        for budget in (2**12, 2**14, 2**16, 2**20, 2**28):
            current = total_bytes(traffic(specs, engine, budget, precision))
            if previous is not None:
                assert current <= previous
            previous = current

    def test_spilled_input_charges_load(self, engine, precision):
        # The first layer's OFM cannot stay on-chip, so the second layer
        # loads its IFM at least once.
        first = make_spec(k=64, h=64, w=64, index=0)
        second = make_spec(index=1)
        budget = 64 * 1024
        assert first.ofm_elements * precision.activation_bytes > budget
        (_, _, spilled), (_, ifm, _) = traffic([first, second], engine, budget, precision)
        assert spilled == first.ofm_elements * precision.activation_bytes
        assert ifm >= second.ifm_elements * precision.activation_bytes

    def test_one_record_per_layer(self, engine, precision):
        specs = [make_spec(index=i) for i in range(5)]
        assert len(traffic(specs, engine, 10**9, precision)) == len(specs)

    def test_weights_always_loaded_at_least_once(self, engine, precision):
        specs = [make_spec(index=i) for i in range(3)]
        for budget in (4096, 10**6, 10**9):
            layers = traffic(specs, engine, budget, precision)
            for spec, (weight_bytes, _, _) in zip(specs, layers):
                assert weight_bytes >= spec.weight_count * precision.weight_bytes

    def test_option_choice_takes_cheaper(self, engine, precision):
        # A weight-heavy layer with small IFM should pick the option that
        # loads weights once (OS local-WS) when its IFM is off-chip, here
        # because its predecessor's OFM spilled.
        spill = make_spec(k=64, h=64, w=64, index=0)
        spec = make_spec(k=256, c=64, h=4, w=4, r=3, s=3, index=1)
        layers = traffic([spill, spec], engine, 64 * 1024, precision)
        assert layers[0][2] > 0  # the predecessor's OFM went off-chip
        weight_total = spec.weight_count * precision.weight_bytes
        # Weights streamed once; the IFM may be re-read instead.
        assert layers[1][0] == weight_total

    def test_option_cost_tie_goes_to_input_stationary(self):
        # 10 bytes of live OFM leave a working set of 100: 50 bytes hold
        # either half the IFM or half the weights, so both options re-read
        # one operand twice for the same 300 bytes.
        layer = LayerTerms(
            weights=100, ifm=100, ofm=10, live_ofm=10,
            weights_tile=50, ifm_band=50, ofm_row=10,
        )
        assert single_ce_traffic([SPILLING, layer], 110) == [(1, 0, 1000), (200, 100, 0)]


class TestPipelinedAccesses:
    @staticmethod
    def weights(specs, precision):
        return [spec.weight_count * precision.weight_bytes for spec in specs]

    def test_resident_weights_loaded_once(self, precision):
        weights = self.weights([make_spec(index=0), make_spec(index=1)], precision)
        assert pipelined_weight_traffic(weights, 4, [10**9, 10**9]) == weights

    def test_streamed_weights_cost_stage_count(self, precision):
        weights = self.weights([make_spec(index=0)], precision)
        assert pipelined_weight_traffic(weights, 5, [0]) == [weights[0] * 5]

    def test_partial_residency_interpolates(self, precision):
        (weight_total,) = self.weights([make_spec(index=0)], precision)
        half = weight_total // 2
        expected = half + (weight_total - half) * 4
        assert pipelined_weight_traffic([weight_total], 4, [half]) == [expected]

    def test_missing_buffer_entries_stream(self, precision):
        weights = self.weights([make_spec(index=0), make_spec(index=1)], precision)
        assert pipelined_weight_traffic(weights, 3, [10**9])[1] == weights[1] * 3
