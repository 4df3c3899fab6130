"""Static pieces of the distributed layer: links, sharding, groups.

The runner's end-to-end behaviour (bit-exactness, overlap, recovery)
lives in ``test_distributed_runner.py``; this module pins the pure
building blocks — the interconnect cost model, the apportionment
arithmetic every strategy routes through, the group spec grammar and
the instance-name discipline device-loss recovery depends on.
"""

import numpy as np
import pytest

from repro.bench.calibration import device_by_name
from repro.distributed import (DeviceGroup, EvenSharding, ExchangeModel,
                               ExchangePolicy, LinkDescriptor, LinkTable,
                               ProportionalSharding,
                               default_link_table, parse_group_spec,
                               split_counts, strategy_by_name,
                               STRATEGY_NAMES)
from repro.errors import ConfigurationError
from repro.fp import Precision


# -- interconnect links -----------------------------------------------------

class TestLinks:
    def test_transfer_time_is_latency_plus_bytes_over_bandwidth(self):
        link = LinkDescriptor("test", bandwidth=1e9, latency=2e-6)
        assert link.transfer_seconds(0) == pytest.approx(2e-6)
        assert link.transfer_seconds(10**9) == pytest.approx(1.0 + 2e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkDescriptor("bad", bandwidth=0.0)
        with pytest.raises(ConfigurationError):
            LinkDescriptor("bad", bandwidth=1e9, latency=-1e-6)
        with pytest.raises(ConfigurationError):
            LinkDescriptor("ok", bandwidth=1e9).transfer_seconds(-1)

    def test_compose_is_store_and_forward(self):
        fast = LinkDescriptor("fast", bandwidth=80e9, latency=1e-6)
        slow = LinkDescriptor("slow", bandwidth=8e9, latency=5e-6)
        both = fast.compose(slow)
        assert both.bandwidth == pytest.approx(8e9)   # narrow hop wins
        assert both.latency == pytest.approx(6e-6)    # latencies add

    def test_default_table_prices_every_paper_device(self):
        table = default_link_table()
        assert table.known_keys() == ("cpu", "iris-xe-max", "p630")
        # The discrete card's PCIe hop bounds any pair it is part of.
        pair = table.between("cpu", "iris-xe-max")
        assert pair.bandwidth == table.host_link("iris-xe-max").bandwidth

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigurationError, match="no link registered"):
            default_link_table().host_link("a770")

    def test_extra_links_merge_and_override(self):
        custom = LinkDescriptor("custom", bandwidth=1e9)
        table = default_link_table(extra={"a770": custom})
        assert table.host_link("a770") is custom
        with pytest.raises(ConfigurationError):
            LinkTable({})


# -- apportionment ----------------------------------------------------------

class TestSplitCounts:
    def test_even_remainder_goes_to_lower_indices(self):
        assert split_counts(10, [1, 1, 1]) == [4, 3, 3]

    def test_zero_weight_yields_zero_particle_shard(self):
        assert split_counts(3, [0.0, 5.0, 5.0]) == [0, 2, 1]

    def test_more_devices_than_particles(self):
        assert split_counts(2, [1] * 5) == [1, 1, 0, 0, 0]

    def test_all_zero_weights_fall_back_to_even(self):
        assert split_counts(4, [0.0, 0.0]) == [2, 2]

    def test_heterogeneous_weights_sum_exactly(self):
        # The acceptance-critical property: no particle lost or doubled
        # for any awkward weight vector (naive int(n*w) rounding fails
        # most of these).
        weights = [164.0, 35.0, 60.0]  # the paper devices' bandwidths
        for n in (1, 2, 3, 7, 1000, 10_000_019):
            counts = split_counts(n, weights)
            assert sum(counts) == n
            assert all(c >= 0 for c in counts)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            split_counts(10, [])
        with pytest.raises(ConfigurationError):
            split_counts(-1, [1.0])
        with pytest.raises(ConfigurationError):
            split_counts(10, [1.0, -0.5])
        with pytest.raises(ConfigurationError):
            split_counts(10, [1.0, float("nan")])


# -- strategies -------------------------------------------------------------

PAPER_DEVICES = [device_by_name(k) for k in ("cpu", "p630", "iris-xe-max")]


class TestStrategies:
    def test_even(self):
        assert EvenSharding().initial_counts(10, PAPER_DEVICES) == [4, 3, 3]

    def test_bandwidth_proportional_follows_table1(self):
        counts = ProportionalSharding("bandwidth").initial_counts(
            100_000, PAPER_DEVICES)
        cpu, p630, iris = counts
        assert sum(counts) == 100_000
        assert cpu > iris > p630  # 164 > 60 > 35 GB/s

    def test_flops_ranking_flips_with_precision(self):
        # SP: the Iris Xe Max out-muscles the P630; DP emulation
        # collapses it below the iGPU — the placement consequence of
        # the paper's no-native-DP observation.
        sp = ProportionalSharding("flops", Precision.SINGLE)
        dp = ProportionalSharding("flops", Precision.DOUBLE)
        _, sp_p630, sp_iris = sp.initial_counts(100_000, PAPER_DEVICES)
        _, dp_p630, dp_iris = dp.initial_counts(100_000, PAPER_DEVICES)
        assert sp_iris > sp_p630
        assert dp_iris < dp_p630

    def test_by_name(self):
        for name in STRATEGY_NAMES:
            assert strategy_by_name(name).name == name
        with pytest.raises(ConfigurationError):
            strategy_by_name("round-robin")
        with pytest.raises(ConfigurationError):
            ProportionalSharding("latency")


# -- group specs and groups -------------------------------------------------

class TestGroupSpec:
    def test_repeat_and_mixed_entries(self):
        assert parse_group_spec("2x iris-xe-max") == ["iris-xe-max"] * 2
        assert parse_group_spec("cpu, p630, iris-xe-max") == \
            ["cpu", "p630", "iris-xe-max"]
        assert parse_group_spec("cpu,2x iris-xe-max") == \
            ["cpu", "iris-xe-max", "iris-xe-max"]

    def test_key_containing_x_is_not_a_repeat_count(self):
        # "iris-xe-max" contains an "x"; the prefix rule must only
        # trigger on a leading integer.
        assert parse_group_spec("iris-xe-max") == ["iris-xe-max"]

    def test_errors(self):
        for bad in ("", "cpu,,cpu", "0x cpu", "a770", "3x"):
            with pytest.raises(ConfigurationError):
                parse_group_spec(bad)


class TestDeviceGroup:
    def test_members_get_unique_instance_names(self):
        group = DeviceGroup.from_spec("cpu, 2x iris-xe-max")
        assert len(group) == 3
        assert group.names == ["2x Intel Xeon Platinum 8260L #0",
                               "Intel Iris Xe Max #0",
                               "Intel Iris Xe Max #1"]
        assert len(set(group.names)) == 3

    def test_queues_are_out_of_order_and_independent(self):
        group = DeviceGroup.from_spec("2x iris-xe-max")
        a, b = (m.queue for m in group)
        assert a is not b
        assert not a.config.in_order and not b.config.in_order

    def test_link_between_members(self):
        group = DeviceGroup.from_spec("cpu, iris-xe-max")
        link = group.link_between(0, 1)
        assert link.bandwidth == pytest.approx(7.88e9)

    def test_drop_preserves_survivor_identities(self):
        # Fault state is keyed by instance name: if the survivor of
        # "2x iris" were renamed "#0", it would inherit the dead
        # card's injected loss and die immediately on the next step.
        group = DeviceGroup.from_spec("2x iris-xe-max")
        survivors = group.drop(0)
        assert survivors.names == ["Intel Iris Xe Max #1"]
        assert survivors.members[0].key == "iris-xe-max"

    def test_drop_validation(self):
        group = DeviceGroup.from_spec("iris-xe-max")
        with pytest.raises(ConfigurationError):
            group.drop(1)
        with pytest.raises(ConfigurationError):
            group.drop(0)  # cannot drop the last device

    def test_names_length_must_match(self):
        with pytest.raises(ConfigurationError):
            DeviceGroup(["cpu"], names=["a", "b"])
        with pytest.raises(ConfigurationError):
            DeviceGroup([])


# -- exchange policy and topology ------------------------------------------

class TestExchange:
    def test_halo_count(self):
        policy = ExchangePolicy(halo_fraction=0.02)
        assert policy.halo_count(0) == 0
        assert policy.halo_count(-3) == 0
        assert policy.halo_count(1) == 1      # never less than one
        assert policy.halo_count(10_000) == 200

    def test_policy_validation(self):
        for kwargs in (dict(halo_fraction=1.5),
                       dict(bytes_per_particle_extra=-1),
                       dict(watchdog_seconds=-1.0),
                       dict(max_attempts=0)):
            with pytest.raises(ConfigurationError):
                ExchangePolicy(**kwargs)

    def test_ring_neighbours(self):
        policy = ExchangePolicy()
        solo = ExchangeModel(DeviceGroup.from_spec("cpu"), policy, 32)
        assert solo._neighbours(0) == []
        pair = ExchangeModel(DeviceGroup.from_spec("2x p630"), policy, 32)
        assert pair._neighbours(0) == [1]      # deduplicated ring of two
        trio = ExchangeModel(
            DeviceGroup.from_spec("cpu, p630, iris-xe-max"), policy, 32)
        assert sorted(trio._neighbours(1)) == [0, 2]

    def test_single_member_group_exchanges_nothing(self):
        model = ExchangeModel(DeviceGroup.from_spec("cpu"),
                              ExchangePolicy(), 32)
        events = model.exchange_step(0, [1000], [None])
        assert events == [None]
        assert model.report.transfers == 0
