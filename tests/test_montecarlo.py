import math

import numpy as np
import pytest
from scipy.integrate import quad

from wholm import (DegenerateSampleError, Procedure, SimulationConfig,
                   WeightScenario, estimate_sharpness, lfc_stepdown_falsifier,
                   lfc_whp_sampler, one_sample_t_pvalue, rng_new,
                   run_simulation, sample_equicorrelated, t_sf,
                   weight_scenario, whp_stepdown, validate_problem)
from wholm import montecarlo
from wholm.montecarlo import _lfc_whp_batch


def t_density(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2)


def t_sf_by_quadrature(t, df):
    # independent oracle: numerical integration of the density
    tail, _ = quad(t_density, t, np.inf, args=(df,), epsabs=1e-12, limit=200)
    return tail


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_new(123).uniform(size=1000)
        b = rng_new(123).uniform(size=1000)
        assert np.array_equal(a, b)

    def test_adjacent_seeds_differ(self):
        a = rng_new(5).uniform(size=10)
        b = rng_new(6).uniform(size=10)
        assert not np.allclose(a, b)

    def test_uniform_mean(self):
        draws = rng_new(7).uniform(size=10 ** 6)
        assert abs(draws.mean() - 0.5) < 0.002


class TestEquicorrelated:
    def test_independent_columns(self):
        data = sample_equicorrelated(3, 0.0, [0.0, 0.0, 0.0], 10 ** 5, rng_new(1))
        corr = np.corrcoef(data.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.01)

    def test_high_correlation(self):
        data = sample_equicorrelated(2, 0.9, [0.0, 0.0], 10 ** 5, rng_new(2))
        corr = np.corrcoef(data.T)[0, 1]
        assert abs(corr - 0.9) < 0.01

    def test_column_means(self):
        mu = [0.7, 0.0, 0.0]
        data = sample_equicorrelated(3, 0.3, mu, 10 ** 5, rng_new(3))
        assert np.all(np.abs(data.mean(axis=0) - mu) < 0.01)

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="rho"):
            sample_equicorrelated(2, 1.0, [0.0, 0.0], 10, rng_new(4))


class TestTPvalue:
    def test_zero_statistic_gives_half(self):
        assert one_sample_t_pvalue([-1.0, 1.0]) == 0.5

    def test_t14_percentile(self):
        # 1.7613 is the 95th percentile of t with 14 degrees of freedom
        assert t_sf(1.7613, 14) == pytest.approx(0.05, abs=1e-4)

    def test_matches_quadrature_oracle(self):
        gen = rng_new(11)
        for _ in range(30):
            df = int(gen.integers(2, 40))
            t = float(gen.normal(scale=2.5))
            assert t_sf(t, df) == pytest.approx(t_sf_by_quadrature(t, df),
                                                abs=1e-9)

    def test_constant_sample_raises(self):
        with pytest.raises(DegenerateSampleError):
            one_sample_t_pvalue([3.0, 3.0, 3.0])

    def test_too_short_sample(self):
        with pytest.raises(ValueError, match="two observations"):
            one_sample_t_pvalue([1.0])

    def test_null_pvalues_superuniform(self):
        # the library's own statistic, as run_simulation computes it
        reps = 20_000
        draws = rng_new(13).standard_normal((reps, 15, 1))
        tstats, zero = montecarlo._column_t(draws)
        assert not zero.any()
        pvals = t_sf(tstats[:, 0], 14)
        for x in np.linspace(0.01, 0.99, 25):
            se = math.sqrt(x * (1 - x) / reps)
            assert (pvals <= x).mean() <= x + 3 * se


class TestWeightScenarios:
    def test_s4_range(self):
        w = weight_scenario(WeightScenario.S4, [True, False, True], rng_new(17))
        assert np.all((w >= 1.0) & (w <= 6.0))

    def test_s1_split(self):
        mask = [True, False, False, False]
        w = weight_scenario(WeightScenario.S1, mask, rng_new(19))
        assert 1.0 <= w[0] <= 2.0
        assert np.all((w[1:] >= 6.0) & (w[1:] <= 10.0))

    def test_s2_alt_mean(self):
        gen = rng_new(23)
        mask = np.zeros(1, dtype=bool)
        draws = np.array([weight_scenario(WeightScenario.S2, mask, gen)[0]
                          for _ in range(10 ** 5)])
        assert abs(draws.mean() - 6.0) < 0.03

    @pytest.mark.parametrize("scenario, null_range, alt_range", [
        (WeightScenario.S1, (1.0, 2.0), (6.0, 10.0)),
        (WeightScenario.S2, (1.0, 2.0), (2.0, 10.0)),
        (WeightScenario.S3, (1.0, 2.0), (2.0, 6.0)),
        (WeightScenario.S4, (1.0, 6.0), (1.0, 6.0)),
    ])
    def test_2d_mask_keeps_each_range(self, scenario, null_range, alt_range):
        mask = rng_new(29).uniform(size=(300, 7)) < 0.4
        w = weight_scenario(scenario, mask, rng_new(31))
        assert w.shape == mask.shape
        for entries, (lo, hi) in ((w[mask], null_range), (w[~mask], alt_range)):
            assert np.all((entries >= lo) & (entries <= hi))
            # both ends of the range are reached, so no other range fits
            assert entries.min() < lo + 0.05 * (hi - lo)
            assert entries.max() > hi - 0.05 * (hi - lo)
        # one row of a 2-D mask draws exactly what the 1-D mask draws
        assert np.array_equal(weight_scenario(scenario, mask[:1], rng_new(37))[0],
                              weight_scenario(scenario, mask[0], rng_new(37)))


class TestSimulationConfig:
    def test_pi0_times_m_must_be_integer(self):
        with pytest.raises(ValueError, match="integer"):
            SimulationConfig(m=5, pi0=0.3, rho=0.0, n=15, mu_alt=0.7,
                             alpha=0.05, reps=10,
                             weight_scenario=WeightScenario.S2, seed=1)

    def test_pi0_one_disallowed(self):
        with pytest.raises(ValueError, match="pi0"):
            SimulationConfig(m=5, pi0=1.0, rho=0.0, n=15, mu_alt=0.7,
                             alpha=0.05, reps=10,
                             weight_scenario=WeightScenario.S2, seed=1)

    def test_reps_required(self):
        with pytest.raises(ValueError, match="reps"):
            SimulationConfig(m=5, pi0=0.4, rho=0.0, n=15, mu_alt=0.7,
                             alpha=0.05, reps=0,
                             weight_scenario=WeightScenario.S2, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimulationConfig(m=5, pi0=0.4, rho=0.0, n=15, mu_alt=0.7,
                             alpha=0.05, reps=10,
                             weight_scenario=WeightScenario.S2, seed=-1)


class TestRunSimulation:
    def test_small_cell_properties(self):
        config = SimulationConfig(m=5, pi0=0.4, rho=0.0, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=1000,
                                  weight_scenario=WeightScenario.S2, seed=2024)
        result = run_simulation(config)
        whp = result.records[Procedure.WHP]
        wap = result.records[Procedure.WAP]
        assert whp.fwer <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 1000)
        assert whp.power >= wap.power
        assert 0.0 <= whp.power <= 1.0

    def test_single_replicate_extremes(self):
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=1,
                                  weight_scenario=WeightScenario.S4, seed=3)
        result = run_simulation(config)
        for record in result.records.values():
            assert record.fwer in (0.0, 1.0)
            assert record.fwer_se == 0.0

    def test_deterministic_given_seed(self):
        config = SimulationConfig(m=5, pi0=0.4, rho=0.5, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=200,
                                  weight_scenario=WeightScenario.S2, seed=99)
        assert run_simulation(config) == run_simulation(config)

    def test_seeded_output_golden(self, monkeypatch):
        # the exact floats pin both the random streams and the replicate-order
        # power summation.  The block-size-1 values were recorded with the
        # per-replicate generators that preceded block sampling, so the block
        # engine still draws that stream as its special case.
        config = SimulationConfig(m=10, pi0=0.4, rho=0.5, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=500,
                                  weight_scenario=WeightScenario.S2, seed=2026)
        by_block_rows = {
            256: {Procedure.HOLM: (0.06, 0.46300000000000013),
                  Procedure.WHP: (0.062, 0.5673333333333335),
                  Procedure.WAP: (0.056, 0.533333333333333)},
            1: {Procedure.HOLM: (0.026, 0.49566666666666664),
                Procedure.WHP: (0.028, 0.6023333333333338),
                Procedure.WAP: (0.022, 0.5653333333333337)},
        }
        assert montecarlo.SIMULATION_BLOCK_ROWS == 256
        for block_rows, expected in by_block_rows.items():
            monkeypatch.setattr(montecarlo, "SIMULATION_BLOCK_ROWS", block_rows)
            result = run_simulation(config)
            for proc, (fwer, power) in expected.items():
                record = result.records[proc]
                assert type(record.fwer) is float and type(record.power) is float
                assert (record.fwer, record.power) == (fwer, power)
            assert result.resampled == 0

    def test_blocks_are_drawn_alone(self):
        # 2 full blocks and a last one of 37 rows; each block, drawn from its
        # own child in any order, is its rows of the whole cell
        config = SimulationConfig(m=6, pi0=0.5, rho=0.3, n=9, mu_alt=0.7,
                                  alpha=0.05, reps=2 * 256 + 37,
                                  weight_scenario=WeightScenario.S3, seed=81)
        weights, tstats, resampled = montecarlo._draw_cell(config)
        assert resampled == 0
        children = np.random.SeedSequence(81).spawn(3)
        mu = np.array([0.0] * 3 + [0.7] * 3)
        mask = np.array([True] * 3 + [False] * 3)
        for b in (2, 0, 1):
            rows = min(256, config.reps - 256 * b)
            gen = np.random.default_rng(children[b])
            w = weight_scenario(WeightScenario.S3, np.tile(mask, (rows, 1)), gen)
            data = sample_equicorrelated(6, 0.3, mu, 9 * rows, gen)
            t, zero = montecarlo._column_t(data.reshape(rows, 9, 6))
            assert not zero.any()
            block = slice(256 * b, 256 * b + rows)
            assert np.array_equal(w, weights[block])
            assert np.array_equal(t, tstats[block])

    def test_cell_is_a_prefix_of_a_longer_cell(self):
        def cell(reps):
            return montecarlo._draw_cell(SimulationConfig(
                m=5, pi0=0.4, rho=0.0, n=15, mu_alt=0.7, alpha=0.05,
                reps=reps, weight_scenario=WeightScenario.S1, seed=7))

        short_w, short_t, _ = cell(256)
        long_w, long_t, _ = cell(512)
        assert np.array_equal(short_w, long_w[:256])
        assert np.array_equal(short_t, long_t[:256])
        assert not np.array_equal(short_t, long_t[256:])

    def test_wap_outside_whp_raises(self, monkeypatch):
        real = montecarlo.batch_stepdown

        def broken(procedure, p, w, alpha):
            mask = real(procedure, p, w, alpha)
            if procedure is Procedure.WAP:
                mask[3:] = True
            return mask

        monkeypatch.setattr(montecarlo, "batch_stepdown", broken)
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=15, mu_alt=0.0,
                                  alpha=0.05, reps=10,
                                  weight_scenario=WeightScenario.S2, seed=5)
        with pytest.raises(RuntimeError, match="replicate 3"):
            run_simulation(config)

    def test_invalid_pvalue_raises(self, monkeypatch):
        real = montecarlo.t_sf

        def nan_at(t, df):
            out = real(t, df)
            out[2, 1] = np.nan
            return out

        monkeypatch.setattr(montecarlo, "t_sf", nan_at)
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=5,
                                  weight_scenario=WeightScenario.S2, seed=5)
        with pytest.raises(ValueError, match="replicate 2, hypothesis 1"):
            run_simulation(config)

    def test_zero_variance_sample_redrawn_once(self, monkeypatch):
        real = montecarlo.sample_equicorrelated
        calls = []

        def constant_rows_in_block_draw(m, rho, mu, n, gen):
            # the block draw (45 rows = 3 replicates of 15) makes replicates
            # 0 and 2 constant; the redraws that follow are real
            calls.append(n)
            data = real(m, rho, mu, n, gen)
            if len(calls) == 1:
                data.reshape(3, 15, m)[[0, 2]] = 0.0
            return data

        monkeypatch.setattr(montecarlo, "sample_equicorrelated",
                            constant_rows_in_block_draw)
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=3,
                                  weight_scenario=WeightScenario.S2, seed=5)
        assert run_simulation(config).resampled == 2
        assert calls == [45, 15, 15]

        monkeypatch.setattr(montecarlo, "sample_equicorrelated",
                            lambda m, rho, mu, n, gen: np.zeros((n, m)))
        with pytest.raises(DegenerateSampleError):
            run_simulation(config)


class TestLfcSampler:
    def test_single_null_uniform(self):
        gen = rng_new(29)
        draws = np.array([lfc_whp_sampler([3.0], gen).p[0] for _ in range(5000)])
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        assert abs(draws.mean() - 0.5) < 0.03

    def test_marginals_uniform_on_grid(self):
        w = np.array([1.0, 2.0, 3.0])
        samples = _lfc_whp_batch(w, rng_new(31), 200_000)[0]
        grid = np.linspace(0.01, 0.99, 100)
        for col in range(3):
            ecdf = (samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
            assert np.max(np.abs(ecdf - grid)) <= 0.01

    def test_exactly_one_small_weighted_pvalue(self):
        w = np.array([1.0, 2.0, 3.0])
        gen = rng_new(37)
        cut = 1.0 / w.sum()
        for _ in range(500):
            sample = lfc_whp_sampler(w, gen)
            tilde = np.asarray(sample.p) / w
            assert int((tilde <= cut).sum()) == 1
            assert tilde[sample.selected] <= cut

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_weight_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="at index 1"):
            lfc_whp_sampler([1.0, bad], rng_new(29))
        with pytest.raises(ValueError, match="nonempty"):
            lfc_whp_sampler([], rng_new(29))


class TestFalsifier:
    def test_marginals_uniform(self):
        w = np.array([1.5, 1.0, 2.0])
        alpha = 0.05
        crit = [alpha / w[r:].sum() for r in range(3)]
        gen = rng_new(41)
        samples = np.array([lfc_stepdown_falsifier(crit, w, 1, gen).p
                            for _ in range(50_000)])
        grid = np.linspace(0.01, 0.99, 100)
        for col in range(3):
            ecdf = (samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
            assert np.max(np.abs(ecdf - grid)) <= 0.015

    def test_selected_index_beats_tau(self):
        w = np.array([1.0, 2.0, 3.0])
        crit = [0.008, 0.0125, 0.0167]
        gen = rng_new(43)
        tau = min(crit[0], 1.0 / w.sum())
        for _ in range(300):
            sample = lfc_stepdown_falsifier(crit, w, 1, gen)
            tilde = np.asarray(sample.p) / w
            if sample.selected is not None:
                assert tilde.min() <= tau + 1e-15

    def test_whp_critical_values_attain_alpha(self):
        w = np.array([1.0, 2.0, 3.0])
        alpha = 0.05
        crit = [alpha / w[r:].sum() for r in range(3)]
        gen = rng_new(47)
        reps = 50_000
        labels = ("H1", "H2", "H3")
        hits = 0
        for _ in range(reps):
            sample = lfc_stepdown_falsifier(crit, w, 1, gen)
            prob = validate_problem(labels, sample.p, w, alpha)
            if whp_stepdown(prob).rejected:
                hits += 1
        rate = hits / reps
        se = math.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rate - alpha) <= 4 * se

    def test_bad_inputs(self):
        gen = rng_new(53)
        with pytest.raises(ValueError, match="nondecreasing"):
            lfc_stepdown_falsifier([0.05, 0.01], [1.0, 1.0], 1, gen)
        with pytest.raises(ValueError, match="r must lie"):
            lfc_stepdown_falsifier([0.01, 0.05], [1.0, 1.0], 3, gen)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_weight_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="at index 1"):
            lfc_stepdown_falsifier([0.01, 0.05], [1.0, bad], 1, rng_new(53))


class TestSharpness:
    def test_whp_attains_alpha(self):
        estimate = estimate_sharpness(Procedure.WHP, [1.0, 2.0, 3.0], 3,
                                      50_000, rng_new(59))
        assert abs(estimate.fwer - 0.05) < 0.006

    def test_wap_ratio_condition_enforced(self):
        with pytest.raises(ValueError, match="min\\(w\\)/max\\(w\\)"):
            estimate_sharpness(Procedure.WAP, [1.0, 100.0], 2, 100, rng_new(61))

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError, match="reps"):
            estimate_sharpness(Procedure.WHP, [1.0], 1, 0, rng_new(67))

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0, float("inf")])
    def test_bad_weight_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="at index 2"):
            estimate_sharpness(Procedure.WHP, [1.0, 2.0, bad], 3, 10, rng_new(67))

    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_seeded_output_golden(self, procedure):
        # recorded with the per-row step-downs that preceded the batched kernel
        estimate = estimate_sharpness(procedure, [1, 2, 3, 4], 4, 20_000,
                                      rng_new(7))
        assert type(estimate.fwer) is float
        assert estimate.fwer == 0.0504

    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_block_size_does_not_change_the_estimate(self, procedure,
                                                     monkeypatch):
        w = [1.0, 2.5, 3.0, 4.0, 6.0]
        whole = estimate_sharpness(procedure, w, 5, 5000, rng_new(71))
        monkeypatch.setattr(montecarlo, "SHARPNESS_BLOCK_ROWS", 7)
        assert estimate_sharpness(procedure, w, 5, 5000, rng_new(71)) == whole
