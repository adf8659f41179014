"""Closed forms, quadrature oracles, Monte Carlo estimators, calibration."""

import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _dilog
from apollonius import probability, rng
from apollonius.fourpoint import Geometry, exists_euclid, exists_hyper
from apollonius.halfplane import GeometryError
from apollonius.probability import (
    HyperProbSetup,
    calibrate_ratio,
    estimate_pe,
    estimate_ph,
    pe_quadrature,
    ph_reference_constant,
    ph_quadrature,
)
from apollonius.rng import PairBuffers, SampleStream

from _scalar_sampler import (
    euclid_indicator_stream,
    hyper_indicator_stream,
    sample_config_euclid,
    sample_config_hyper,
    shifted,
)

# frozen at 40-digit precision from the closed-form expressions
PE_VALUE = 0.4344050123378750055
PH_PRINTED_VALUE = 0.4201514931601543251

# P_h(R) at the double nearest each R, from mpmath at 45 digits: the 1-D
# reduction integrated by tanh-sinh on eight equal subintervals of (0, 1),
# which agreed with mpmath's Gauss-Legendre to 1e-47
PH_MPMATH = {
    1.0001: 0.4344050120917386591920513,
    2.0: 0.4229943807202507007578024,
    1e3: 0.1701127585403225411589583,
    1e8: 0.070957970307183361838813,
    1e12: 0.04826076434008044053269779,
}

# the ratio at which P_h equals ph_reference_constant() as a double,
# from mpmath.findroot on the same 45-digit integral
CALIBRATED_RATIO = 2.17765040422971741


class FakeStream:
    """Deterministic draw source for sampling-logic tests."""

    def __init__(self, values):
        self.values = list(values)

    def next_float(self):
        return self.values.pop(0)


class TestClosedForms:
    def test_pe(self):
        assert pe_quadrature() == pytest.approx(PE_VALUE, abs=1e-16)
        # correctly rounded: P_e from the test's own 320-bit ln 2, rounded once
        exact = Fraction((15 << _dilog.BITS) - 16 * _dilog.ln2(), 9 << _dilog.BITS)
        assert pe_quadrature() == pytest.approx(float(exact), abs=0.0)
        assert 0.4343 < pe_quadrature() < 0.4345

    def test_pe_rearrangement(self):
        assert 9 * pe_quadrature() + 16 * math.log(2) == pytest.approx(15.0, rel=1e-15, abs=0.0)

    def test_ph_printed(self):
        value = ph_reference_constant()
        assert value == pytest.approx(PH_PRINTED_VALUE, abs=1e-15)
        # agrees with the printed ten-digit decimal to ~8 digits
        assert value == pytest.approx(0.4201514924, abs=1e-8)

    def test_ph_numerator_positive(self):
        assert 2 * math.sqrt(5) * math.log(2 + math.sqrt(5)) - 5 > 0


class TestQuadratures:
    def test_pe_matches_closed_form_tight(self):
        assert abs(pe_quadrature() - (15 - 16 * math.log(2)) / 9) <= 1e-10

    def test_pe_integrand_vanishes_at_one(self):
        assert 4 * 1.0 / (1 + 3 * 1.0) - 1.0 == 0.0

    def test_ph_value_in_unit_interval(self):
        for ratio in (1.1, 2.0, 50.0):
            value = ph_quadrature(HyperProbSetup(ratio))
            assert 0.0 < value < 1.0

    def test_ph_approaches_pe_as_ratio_shrinks(self):
        assert ph_quadrature(HyperProbSetup(1.0001)) == pytest.approx(
            pe_quadrature(), abs=1e-4
        )

    def test_ph_shrinks_for_huge_ratio(self):
        # decays like 1/ln(ratio); frozen oracle value 0.0926997254725939
        value = ph_quadrature(HyperProbSetup(1e6))
        assert value == pytest.approx(0.0926997254725939, abs=1e-8)

    def test_ph_monotone_decreasing(self):
        values = [ph_quadrature(HyperProbSetup(r)) for r in (1.5, 2, 5, 10, 100)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("ratio", sorted(PH_MPMATH))
    def test_ph_matches_mpmath_to_the_last_bit(self, ratio):
        exact = PH_MPMATH[ratio]
        assert abs(ph_quadrature(HyperProbSetup(ratio)) - exact) <= 0.5 * math.ulp(exact)

    @pytest.mark.parametrize("ratio", [1 + 2**-52, 1 + 2**-51])
    def test_ph_at_the_first_ratios_above_one_is_pe(self, ratio):
        # the fixed point carries the guard bits that the L^2 cancellation needs
        assert ph_quadrature(HyperProbSetup(ratio)) == float(_dilog.ph(ratio)) == pe_quadrature()

    def test_pe_matches_closed_form_to_the_last_bit(self):
        assert abs(pe_quadrature() - PE_VALUE) <= 0.5 * math.ulp(PE_VALUE)


class TestSamplers:
    def test_euclid_orders_draws(self):
        cfg = sample_config_euclid(FakeStream([0.6, 0.4]))
        assert (cfg.a, cfg.b, cfg.c, cfg.d) == (1.0, 0.6, 0.4, 0.0)
        cfg = sample_config_euclid(FakeStream([0.25, 0.75]))
        assert (cfg.b, cfg.c) == (0.75, 0.25)
        assert cfg.geometry is Geometry.EUCLIDEAN

    def test_euclid_redraws_ties_and_zeros(self):
        cfg = sample_config_euclid(FakeStream([0.5, 0.5, 0.0, 0.3, 0.8, 0.2]))
        assert (cfg.b, cfg.c) == (0.8, 0.2)

    def test_hyper_heights_are_exponential(self):
        setup = HyperProbSetup(2.0)
        cfg = sample_config_hyper(FakeStream([0.5, 0.25]), setup)
        assert cfg.a == 2.0 and cfg.d == 1.0
        assert cfg.b == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0.0)
        assert cfg.c == pytest.approx(2.0**0.25, rel=1e-15, abs=0.0)
        assert cfg.geometry is Geometry.HYPERBOLIC

    def test_hyper_upper_endpoint(self):
        # u -> 1 maps to the top of the interval
        setup = HyperProbSetup(2.0)
        cfg = sample_config_hyper(FakeStream([1.0 - 2**-53, 0.5]), setup)
        assert cfg.b < 2.0

    @pytest.mark.parametrize("ratio", [1 + 2**-52, 1 + 2**-51])
    def test_ratio_without_two_interior_doubles_rejected(self, ratio):
        # fewer than two doubles strictly inside (1, ratio): the interior
        # heights can never be distinct, so sampling would never return
        message = f"ratio {ratio!r} leaves fewer than two doubles strictly inside (1, ratio) for the interior heights"
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            sample_config_hyper(SampleStream(1, 0), HyperProbSetup(ratio))

    def test_ratio_with_two_interior_doubles_samples(self):
        setup = HyperProbSetup(1 + 3 * 2**-52)
        assert estimate_ph(64, 1, setup).n == 64
        cfg = sample_config_hyper(SampleStream(1, 0), setup)
        assert 1.0 < cfg.c < cfg.b < setup.ratio

    def test_order_statistics_mean(self):
        # E[1 - max(U, V)] = 1/3, the top gap; three-sigma band at one million draws
        n = 1_000_000
        total = 0.0
        for lo in range(0, n, 1 << 19):
            hi = min(lo + (1 << 19), n)
            top, _, _ = probability._ordered_gaps(1, lo, hi, PairBuffers(hi - lo))
            total += top.sum() * 2.0**-53
        mean_top = total / n
        sigma = math.sqrt(1.0 / 18.0 / n)
        assert abs(mean_top - 1.0 / 3.0) <= 3 * sigma

    def test_log_uniform_ks(self):
        # Kolmogorov-Smirnov on ln(height)/L against U(0,1), 1% critical value
        n = 100_000
        setup = HyperProbSetup(2.0)
        length = math.log(setup.ratio)
        values = np.empty(2 * n)
        top, _, lower = probability._ordered_gaps(3, 0, n, PairBuffers(n))
        b, c = 1.0 - top * 2.0**-53, lower * 2.0**-53
        values[:n] = np.log(np.exp(b * length)) / length
        values[n:] = np.log(np.exp(c * length)) / length
        values.sort()
        grid = np.arange(1, 2 * n + 1) / (2 * n)
        d_stat = np.max(np.maximum(np.abs(grid - values), np.abs(values - (grid - 1 / (2 * n)))))
        assert d_stat < 1.6276 / math.sqrt(2 * n)


class TestEstimators:
    def test_single_sample_is_zero_or_one(self):
        assert estimate_pe(1, 0).mean in (0.0, 1.0)
        assert estimate_ph(1, 0, HyperProbSetup(2.0)).mean in (0.0, 1.0)

    def test_determinism_bit_identical(self):
        one = estimate_pe(50_000, 7)
        two = estimate_pe(50_000, 7)
        assert one == two

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # small chunks, so these sample counts really are split among threads
        monkeypatch.setattr(probability, "_CHUNK", 1 << 12)
        for threads in (2, 3, 8):
            assert estimate_pe(100_000, 11, threads=threads) == estimate_pe(100_000, 11)
            assert estimate_ph(60_000, 11, HyperProbSetup(2.0), threads=threads) == estimate_ph(
                60_000, 11, HyperProbSetup(2.0)
            )

    @pytest.mark.parametrize("chunk", [1 << 12, 1 << 16, 1 << 19])
    def test_chunk_size_and_threads_do_not_change_results(self, monkeypatch, chunk):
        n, seed, setup = 140_000, 13, HyperProbSetup(2.0)
        pe, ph = estimate_pe(n, seed), estimate_ph(n, seed, setup)
        euclid, hyper = euclid_indicator_stream(n, seed), hyper_indicator_stream(n, seed, 2.0)
        monkeypatch.setattr(probability, "_CHUNK", chunk)
        for threads in (1, 2, 3):
            assert estimate_pe(n, seed, threads=threads) == pe
            assert estimate_ph(n, seed, setup, threads=threads) == ph
        assert (euclid_indicator_stream(n, seed) == euclid).all()
        assert (hyper_indicator_stream(n, seed, 2.0) == hyper).all()

    def test_indicator_streams_copy_each_block(self, monkeypatch):
        # each block's indicators are a view of one buffer row that the next
        # block overwrites; a stream that kept the views would repeat the last
        # block, so three full blocks and a short one are checked sample by
        # sample
        monkeypatch.setattr(probability, "_CHUNK", 1 << 12)
        n, seed, setup = 3 * (1 << 12) + 5, 19, HyperProbSetup(2.0)
        euclid = euclid_indicator_stream(n, seed)
        hyper = hyper_indicator_stream(n, seed, setup.ratio)
        for i in range(n):
            assert euclid[i] == exists_euclid(sample_config_euclid(SampleStream(seed, i)))
            assert hyper[i] == exists_hyper(sample_config_hyper(SampleStream(seed, i), setup))

    @pytest.mark.parametrize(
        "estimate",
        [lambda n: estimate_pe(n, 1), lambda n: estimate_ph(n, 1, HyperProbSetup(2.0))],
        ids=["pe", "ph"],
    )
    def test_blocks_allocate_nothing_beyond_their_buffers(self, estimate):
        # every intermediate of a block lives in one PairBuffers, so the traced
        # peak of a single-threaded estimate over several blocks is those
        # buffers plus small Python objects
        estimate(1 << 18)
        tracemalloc.start()
        try:
            estimate(1 << 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = PairBuffers(probability._CHUNK)
        assert peak <= sum(a.nbytes for a in vars(buffers).values()) + 64 * 1024

    def test_worker_count_capped_by_chunks_and_cpus(self):
        assert probability._worker_count(1, 100, 8) == 1
        assert probability._worker_count(3, 100, 8) == 3
        assert probability._worker_count(10**9, 100, 8) == 8
        assert probability._worker_count(10**9, 3, 8) == 3
        assert probability._worker_count(4, 1, 8) == 1

    def test_frozen_regression_values(self):
        assert estimate_pe(10_000, 123).mean == 0.4336
        assert estimate_ph(10_000, 123, HyperProbSetup(2.0)).mean == 0.4207

    def test_stderr_formula(self):
        est = estimate_pe(10_000, 123)
        assert est.stderr == pytest.approx(math.sqrt(est.mean * (1 - est.mean) / est.n), abs=0.0)

    def test_pe_close_to_closed_form(self):
        est = estimate_pe(1_000_000, 1)
        assert abs(est.mean - pe_quadrature()) <= 4 * est.stderr

    def test_ph_close_to_quadrature(self):
        setup = HyperProbSetup(2.0)
        est = estimate_ph(500_000, 1, setup)
        assert abs(est.mean - ph_quadrature(setup)) <= 4 * est.stderr

    def test_estimator_matches_scalar_sampling_path(self):
        # the vectorized indicator agrees sample by sample with the
        # object-building scalar path, near the Euclidean limit and far from it
        n, seed = 2_000, 31
        vector_e = euclid_indicator_stream(n, seed)
        for i in range(n):
            assert vector_e[i] == exists_euclid(sample_config_euclid(SampleStream(seed, i)))
        for ratio in (1.0001, 3.0, 1e3, 1e12):
            setup = HyperProbSetup(ratio)
            vector_h = hyper_indicator_stream(n, seed, ratio)
            for i in range(n):
                assert vector_h[i] == exists_hyper(sample_config_hyper(SampleStream(seed, i), setup))

    @pytest.mark.parametrize("ratio", [1e160, 1e300, 1 + 16 * 2**-52])
    def test_ph_close_to_quadrature_at_extreme_ratios(self, ratio):
        # heights near 1e160 once squared past the float range, so every sample
        # read False; 16 ulps above 1, exp rounded the heights onto 15 doubles,
        # 46.8 stderr above the quadrature at 2^20 samples
        setup = HyperProbSetup(ratio)
        est = estimate_ph(1 << 18, 1, setup)
        assert abs(est.mean - ph_quadrature(setup)) <= 4 * est.stderr

    def test_tie_and_zero_draws_are_redrawn_from_the_stream(self, monkeypatch):
        # a tie and a zero never come out of the generator at these seeds, so
        # the integer pair kernel and the scalar generator both return a tie
        # for sample 40 and a zero lower draw for sample 41; each kernel must
        # then take the sample from its stream past the rejected draws, as the
        # scalar path does. Left in place, the tie would read as a success and
        # the zero as a failure in both geometries, the opposite of the
        # redrawn samples here. Each is checked alone in a block and together
        seed = 5
        injected = {(40, 0): 0.5, (40, 1): 0.5, (41, 0): 0.75, (41, 1): 0.0}
        pair_integers, sample_uniform = rng._pair_integers, rng.sample_uniform

        def pair(seed, lo, hi, buffers):
            draws = pair_integers(seed, lo, hi, buffers)
            for (index, draw), value in injected.items():
                if lo <= index < hi:
                    draws[draw, index - lo] = value * 2.0**53
            return draws

        def uniform(seed, index, draw):
            value = injected.get((index, draw))
            return sample_uniform(seed, index, draw) if value is None else value

        monkeypatch.setattr(rng, "_pair_integers", pair)
        monkeypatch.setattr(rng, "sample_uniform", uniform)
        setup = HyperProbSetup(2.0)
        scalar_e = [exists_euclid(sample_config_euclid(SampleStream(seed, i))) for i in range(40, 44)]
        scalar_h = [exists_hyper(sample_config_hyper(SampleStream(seed, i), setup)) for i in range(40, 44)]
        assert scalar_e[:2] == scalar_h[:2] == [False, True]
        for lo, hi in ((40, 41), (41, 42), (40, 44)):
            buffers = PairBuffers(hi - lo)
            euclid = probability._euclid_indicators(seed, lo, hi, buffers)
            assert euclid.tolist() == scalar_e[lo - 40 : hi - 40]
            hyper = probability._hyper_indicators(seed, lo, hi, setup.ratio, buffers)
            assert hyper.tolist() == scalar_h[lo - 40 : hi - 40]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_benchmark_estimates_frozen(self, threads):
        # the benchmark's estimates: 2^20 samples, P_h at ratio 2
        setup = HyperProbSetup(2.0)
        for seed, pe, ph in ((1, 0.4345378875732422, 0.4229898452758789), (7, 0.4339628219604492, 0.42246532440185547)):
            assert estimate_pe(1 << 20, seed, threads=threads).mean == pe
            assert estimate_ph(1 << 20, seed, setup, threads=threads).mean == ph

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize(
        "count",
        [
            lambda n: estimate_pe(n, 1),
            lambda n: estimate_ph(n, 1, HyperProbSetup(2.0), threads=2),
            lambda n: euclid_indicator_stream(n, 1),
            lambda n: hyper_indicator_stream(n, 1, 2.0),
        ],
        ids=["estimate_pe", "estimate_ph", "euclid_stream", "hyper_stream"],
    )
    def test_invalid_counts_rejected(self, count, n):
        # the streams raised numpy's bare ValueErrors here
        with pytest.raises(GeometryError, match=rf"^need at least one sample, got n={n}$"):
            count(n)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize(
        "count",
        [
            lambda seed: estimate_pe(10, seed),
            lambda seed: estimate_ph(1 << 17, seed, HyperProbSetup(2.0), threads=2),
            lambda seed: euclid_indicator_stream(10, seed),
            lambda seed: hyper_indicator_stream(10, seed, 2.0),
            lambda seed: sample_config_euclid(SampleStream(seed, 3)),
            lambda seed: sample_config_hyper(SampleStream(seed, 3), HyperProbSetup(2.0)),
        ],
        ids=["estimate_pe", "estimate_ph", "euclid_stream", "hyper_stream", "euclid_sampler", "hyper_sampler"],
    )
    def test_seeds_outside_64_bits_rejected(self, count, seed):
        # the generator reduces seeds modulo 2^64: -1 ran as 2^64 - 1 and
        # 2^64 as 0, while the estimate reported the seed it was given and
        # the samplers drew another seed's config
        with pytest.raises(GeometryError, match=rf"^seed must lie in \[0, 2\^64\), got {seed}$"):
            count(seed)

    def test_largest_seed_keeps_its_stream(self):
        seed, setup = (1 << 64) - 1, HyperProbSetup(2.0)
        assert estimate_pe(100_000, seed).mean == 0.43435
        assert estimate_pe(100_000, seed, threads=2).mean == 0.43435
        assert estimate_ph(100_000, seed, setup).mean == 0.42303
        stream = euclid_indicator_stream(70_000, seed)
        assert hashlib.sha256(stream.tobytes()).hexdigest()[:16] == "4d7dd6cdbc957fd5"


class TestInvariance:
    def test_euclid_affine_invariance_of_indicators(self):
        # the kernel's stream is the library's existence test on the sampled
        # configs translated by each offset
        stream = euclid_indicator_stream(100_000, 5).tolist()
        for i, indicator in enumerate(stream):
            cfg = sample_config_euclid(SampleStream(5, i))
            for offset in (0.5, 1.0, 10.0):
                assert exists_euclid(shifted(cfg, offset)) == indicator, (i, offset)

    def test_cross_ratio_affine_invariant_in_exact_arithmetic(self):
        a, b, c, d = map(Fraction, (4, 2, 1, 0))
        t = Fraction(7, 3)
        cr = lambda a, b, c, d: ((b - c) / (a - b)) / ((c - d) / (a - d))
        assert cr(a, b, c, d) == cr(a + t, b + t, c + t, d + t)


class TestCalibration:
    def test_self_consistency(self):
        target = ph_quadrature(HyperProbSetup(2.0))
        found = calibrate_ratio(target, (1.5, 3.0))
        assert found == pytest.approx(2.0, abs=1e-6)

    def test_impossible_target(self):
        assert calibrate_ratio(1.5, (1.01, 1000.0)) is None

    def test_reference_ratio_to_the_last_bits(self):
        found = calibrate_ratio(ph_reference_constant(), (1.01, 1000.0))
        assert abs(found - CALIBRATED_RATIO) <= 2 * math.ulp(CALIBRATED_RATIO)

    def test_reversed_bracket(self):
        forward = calibrate_ratio(ph_reference_constant(), (1.01, 1000.0))
        assert calibrate_ratio(ph_reference_constant(), (1000.0, 1.01)) == forward

    def test_found_ratio_hits_target(self):
        target = ph_reference_constant()
        found = calibrate_ratio(target, (1.01, 1000.0))
        assert found is not None
        assert abs(ph_quadrature(HyperProbSetup(found)) - target) <= 1e-9
