"""Tests for the composed RFChannel and the environment presets."""

from __future__ import annotations

import numpy as np
import pytest
from dataclasses import replace

from repro.exceptions import ChannelError, ConfigurationError
from repro.rf import (
    RFChannel,
    ShadowingSpec,
    env1,
    env2,
    env3,
    environment_by_name,
)
from repro.rf.fading import NoFading

from .conftest import make_clean_environment


@pytest.fixture
def channel(grid, readers):
    return make_clean_environment().build_channel(readers, seed=0)


class TestRFChannel:
    def test_reader_count(self, channel):
        assert channel.n_readers == 4

    def test_mean_rssi_deterministic(self, grid, readers):
        env = env3()
        c1 = env.build_channel(readers, seed=11)
        c2 = env.build_channel(readers, seed=11)
        pts = grid.tag_positions()
        np.testing.assert_array_equal(
            c1.mean_rssi_matrix(pts), c2.mean_rssi_matrix(pts)
        )

    def test_different_seeds_different_worlds(self, grid, readers):
        env = env3()
        pts = grid.tag_positions()
        m1 = env.build_channel(readers, seed=1).mean_rssi_matrix(pts)
        m2 = env.build_channel(readers, seed=2).mean_rssi_matrix(pts)
        assert not np.allclose(m1, m2)

    def test_clean_channel_is_pure_path_loss(self, channel, readers):
        pts = np.array([[1.0, 1.0], [2.0, 2.5]])
        for k in range(4):
            d = np.linalg.norm(pts - readers[k], axis=1)
            expected = channel.path_loss.rssi(d)
            np.testing.assert_allclose(channel.mean_rssi(k, pts), expected)

    def test_sample_shape(self, channel):
        rng = np.random.default_rng(0)
        out = channel.sample_rssi(0, np.zeros((5, 2)), rng, n_reads=3)
        assert out.shape == (5, 3)

    def test_clean_samples_equal_mean(self, channel):
        rng = np.random.default_rng(0)
        pts = np.array([[1.0, 2.0]])
        mean = channel.mean_rssi(0, pts)[:, None]
        # rician_k=1000 ~ no fading, noise 0 -> samples ~ mean (tiny fading).
        samples = channel.sample_rssi(0, pts, rng, n_reads=4)
        np.testing.assert_allclose(samples, np.broadcast_to(mean, samples.shape),
                                   atol=0.3)

    def test_extra_attenuation_subtracts(self, channel):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        pts = np.array([[1.0, 1.0]])
        base = channel.sample_rssi(0, pts, rng1)
        dimmed = channel.sample_rssi(0, pts, rng2, extra_attenuation_db=6.0)
        np.testing.assert_allclose(base - dimmed, 6.0, atol=1e-9)

    def test_sensitivity_floor_applied(self, grid, readers):
        env = make_clean_environment()
        ch = RFChannel(
            env.room, readers, path_loss=env.path_loss,
            shadowing=env.shadowing, multipath=env.multipath,
            fading=NoFading(), noise_sigma_db=0.0,
            sensitivity_dbm=-60.0, seed=0,
        )
        rng = np.random.default_rng(0)
        far = np.array([[11.0, 11.0]])  # weak signal
        out = ch.sample_rssi(0, far, rng)
        assert out.min() >= -60.0

    def test_matrix_shapes(self, channel, grid):
        rng = np.random.default_rng(0)
        pts = grid.tag_positions()
        assert channel.mean_rssi_matrix(pts).shape == (4, 16)
        assert channel.sample_rssi_matrix(pts, rng, n_reads=2).shape == (4, 16)

    def test_reader_index_validated(self, channel):
        with pytest.raises(ChannelError):
            channel.mean_rssi(4, np.zeros((1, 2)))

    def test_n_reads_validated(self, channel):
        with pytest.raises(ChannelError):
            channel.sample_rssi(0, np.zeros((1, 2)), np.random.default_rng(0), n_reads=0)

    def test_needs_a_reader(self):
        env = make_clean_environment()
        with pytest.raises(ChannelError, match="at least one reader"):
            RFChannel(env.room, np.zeros((0, 2)))

    def test_common_shadowing_preserves_total_variance(self, readers):
        # Ensemble std across frozen worlds at a fixed point must stay
        # ~sigma_db regardless of how variance is split common/individual.
        def ensemble_std(common_fraction: float) -> float:
            env = make_clean_environment(
                shadowing=ShadowingSpec(
                    sigma_db=4.0,
                    correlation_length_m=2.0,
                    common_fraction=common_fraction,
                )
            )
            pt = np.array([[1.3, 1.7]])
            values = []
            for seed in range(60):
                ch = env.build_channel(readers, seed=seed)
                d = np.linalg.norm(pt[0] - readers[0])
                values.append(
                    float(ch.mean_rssi(0, pt)[0] - ch.path_loss.rssi(d))
                )
            return float(np.std(values))

        split = ensemble_std(0.8)
        pure = ensemble_std(0.0)
        assert split == pytest.approx(pure, rel=0.5)
        assert 2.0 < split < 7.0

    def test_common_shadowing_correlates_readers(self, readers):
        # With common_fraction=1 every reader sees the same shadowing value.
        env = make_clean_environment(
            shadowing=ShadowingSpec(
                sigma_db=4.0, correlation_length_m=2.0, common_fraction=1.0
            )
        )
        ch = env.build_channel(readers, seed=3)
        pt = np.array([[1.3, 1.7]])
        offsets = []
        for k in range(4):
            d = np.linalg.norm(pt[0] - readers[k])
            offsets.append(float(ch.mean_rssi(k, pt)[0] - ch.path_loss.rssi(d)))
        assert np.ptp(offsets) < 1e-9


class TestEnvironments:
    @pytest.mark.parametrize("factory", [env1, env2, env3])
    def test_presets_build(self, factory, readers, grid):
        env = factory()
        ch = env.build_channel(readers, seed=0)
        m = ch.mean_rssi_matrix(grid.tag_positions())
        assert np.all(np.isfinite(m))
        assert np.all(m < -20)  # plausible dBm

    def test_rooms_contain_testbed(self, readers):
        for factory in (env1, env2, env3):
            room = factory().room
            for pos in readers:
                assert room.contains(pos, pad=1e-9), (factory.__name__, pos)

    def test_lookup_by_name_case_insensitive(self):
        assert environment_by_name("ENV2").name == "Env2"

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown environment"):
            environment_by_name("Env9")

    def test_env3_harsher_than_env1(self):
        e1, e3 = env1(), env3()
        assert e3.reference_tag_offset_sigma_db > e1.reference_tag_offset_sigma_db
        assert e3.rician_k < e1.rician_k
        assert e3.path_loss.gamma > e1.path_loss.gamma

    def test_negative_offsets_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(env1(), reference_tag_offset_sigma_db=-1.0)

    def test_env3_has_furniture(self):
        names = [w.name for w in env3().room.walls]
        assert "cabinet" in names
