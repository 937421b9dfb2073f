"""Tests for the tile buffers, dispatch controller and result collector."""

import numpy as np
import pytest

from repro.hardware.config import GauRastConfig
from repro.hardware.controller import (
    ControllerTimings,
    DispatchController,
    ResultCollector,
)
from repro.hardware.tile_buffer import (
    PingPongBuffers,
    TileBuffer,
    TileBufferError,
    split_into_batches,
)


class TestTileBuffer:
    def test_load_and_drain(self):
        buffer = TileBuffer("A", capacity=4)
        primitives = np.arange(12).reshape(3, 4)
        buffer.load(primitives)
        assert buffer.occupancy == 3
        drained = buffer.drain()
        assert np.array_equal(drained, primitives)
        assert buffer.is_empty

    def test_overflow_rejected(self):
        buffer = TileBuffer("A", capacity=2)
        with pytest.raises(TileBufferError, match="exceeds"):
            buffer.load(np.zeros((3, 9)))

    def test_drain_empty_rejected(self):
        with pytest.raises(TileBufferError, match="empty"):
            TileBuffer("B", capacity=2).drain()


class TestPingPongBuffers:
    def test_swap_alternates_roles(self):
        buffers = PingPongBuffers(GauRastConfig())
        first = buffers.load_target
        buffers.swap()
        assert buffers.load_target is not first
        assert buffers.compute_source is first

    def test_load_batch_accounts_for_traffic_and_cycles(self):
        config = GauRastConfig()
        buffers = PingPongBuffers(config)
        batch = np.zeros((10, 9))
        cycles = buffers.load_batch(batch)
        assert cycles == config.primitive_load_cycles(10)
        assert buffers.traffic.primitive_bytes_read == 10 * config.primitive_bytes
        assert buffers.batches_loaded == 1

    def test_pixel_readwrite_traffic(self):
        config = GauRastConfig()
        buffers = PingPongBuffers(config)
        buffers.record_pixel_readwrite(256)
        assert buffers.traffic.pixel_bytes_read == 256 * config.pixel_state_bytes
        assert buffers.traffic.pixel_bytes_written == 256 * config.pixel_state_bytes
        assert buffers.traffic.total_bytes == 2 * 256 * config.pixel_state_bytes


class TestSplitIntoBatches:
    def test_even_split(self):
        batches = split_into_batches(np.arange(8), capacity=4)
        assert [len(b) for b in batches] == [4, 4]

    def test_remainder_batch(self):
        batches = split_into_batches(np.arange(10), capacity=4)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_order_preserved(self):
        batches = split_into_batches(np.arange(10), capacity=3)
        assert list(np.concatenate(batches)) == list(range(10))

    def test_empty_input(self):
        assert split_into_batches(np.array([]), capacity=4) == []

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            split_into_batches(np.arange(4), capacity=0)


class TestControllerTimings:
    def test_per_tile_cycles_scale_with_batches(self):
        timings = ControllerTimings()
        one = timings.per_tile_cycles(1)
        three = timings.per_tile_cycles(3)
        assert three > one
        assert three - one == 2 * (
            timings.buffer_swap_cycles + timings.batch_dispatch_cycles
        )

    def test_zero_batches_only_fixed_cost(self):
        timings = ControllerTimings()
        assert timings.per_tile_cycles(0) == (
            timings.tile_init_cycles + timings.tile_writeback_cycles
        )

    def test_negative_batches_rejected(self):
        with pytest.raises(ValueError):
            ControllerTimings().per_tile_cycles(-1)


class TestDispatchController:
    def test_round_robin_assignment(self):
        dispatcher = DispatchController(num_instances=3)
        assignments = dispatcher.assign_tiles([0, 1, 2, 3, 4, 5, 6])
        assert assignments[0] == [0, 3, 6]
        assert assignments[1] == [1, 4]
        assert assignments[2] == [2, 5]

    def test_all_tiles_assigned_exactly_once(self):
        dispatcher = DispatchController(num_instances=4)
        tiles = list(range(23))
        assignments = dispatcher.assign_tiles(tiles)
        flattened = sorted(t for group in assignments for t in group)
        assert flattened == tiles

    def test_invalid_instance_count(self):
        with pytest.raises(ValueError):
            DispatchController(num_instances=0)


class TestResultCollector:
    def test_collect_accumulates(self):
        collector = ResultCollector()
        collector.collect(0, 256)
        collector.collect(1, 128)
        assert collector.tiles_collected == 2
        assert collector.pixels_written == 384

    def test_negative_pixels_rejected(self):
        with pytest.raises(ValueError):
            ResultCollector().collect(0, -1)
