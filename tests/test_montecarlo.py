import math

import numpy as np
import pytest
from scipy.integrate import quad

from test_procedures import index_masks
from wholm import (DegenerateSampleError, OrderingKey, Procedure,
                   SimulationConfig, WeightScenario, estimate_sharpness,
                   lfc_stepdown_falsifier, rng_new, run_simulation,
                   sample_equicorrelated, t_sf, weight_scenario, whp_stepdown,
                   validate_problem)
from wholm import montecarlo
from wholm.montecarlo import _lfc_batch
from wholm.procedures import ranking


def _draw_cell(config):
    """The whole cell's weights and t statistics, and the redraw count."""
    blocks = list(montecarlo._draw_blocks(config))
    return (np.concatenate([w for w, _, _ in blocks]),
            np.concatenate([t for _, t, _ in blocks]),
            sum(redrawn for _, _, redrawn in blocks))


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

    def test_equals_the_one_factor_expression_bit_for_bit(self):
        # the in-place construction against the expression it replaced
        for m in range(1, 21):
            for n in range(2, 31):
                for rho in (0.0, 0.5):
                    mu = [0.0] * (m // 2) + [0.7] * (m - m // 2)
                    seed = 1000 * m + 10 * n + int(2 * rho)
                    gen = rng_new(seed)
                    z0 = gen.standard_normal((n, 1))
                    z = gen.standard_normal((n, m))
                    expected = (math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * z
                                + np.asarray(mu))
                    data = sample_equicorrelated(m, rho, mu, n, rng_new(seed))
                    assert data.tobytes() == expected.tobytes(), (m, n, rho)


class TestTPvalue:
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

    @pytest.mark.parametrize("df", [1, 2, 5, 14, 39])
    def test_small_statistics_follow_the_series(self, df):
        # sf(t) = 1/2 - t f(0) + O(t^3); at |t| <= 1e-5 the cubic term is
        # below 2e-16, so the tolerance is set by float spacing near 1/2
        assert t_sf(0.0, df) == 0.5
        for t in (1e-12, -3e-9, 8.1e-6, -8.1e-6, 1e-5, -1e-5):
            assert t_sf(t, df) == pytest.approx(0.5 - t * t_density(0.0, df),
                                                abs=1e-15)

    def test_is_stdtr_and_the_cauchy_closed_form_bit_for_bit(self):
        # t_sf imports stdtr on its first call; the values stay scipy's
        from scipy.special import stdtr
        t = np.concatenate([
            [0.0, -0.0, 1e-8, -1e-8, 40.0, -40.0, np.inf, -np.inf],
            rng_new(23).standard_normal(200) * 4.0])
        for df in (2, 14, 50):
            assert t_sf(t, df).tobytes() == stdtr(df, -t).tobytes(), df
            for x in t[:12]:
                assert t_sf(x, df) == float(stdtr(df, -x)), (x, df)
        cauchy = np.arctan2(1.0, t) / np.pi
        assert t_sf(t, 1).tobytes() == cauchy.tobytes()
        # per element, a df array picks the closed form at df = 1 only
        df = np.array([1, 2, 14, 50])[:, None]
        expected = np.where(df == 1, cauchy, stdtr(df, -t))
        assert t_sf(t, df).tobytes() == expected.tobytes()

    def test_column_t_equals_numpy_mean_and_std_bit_for_bit(self):
        # the one-sum statistics against the numpy expressions they replaced
        for m in range(1, 21):
            for n in range(2, 31):
                for rho in (0.0, 0.5):
                    gen = rng_new(1000 * m + 10 * n + int(2 * rho))
                    data = sample_equicorrelated(m, rho, [0.0] * m, 4 * n,
                                                 gen).reshape(4, n, m)
                    data[1, :, 0] = 0.1         # a constant column
                    data[2] = 3.0               # a constant replicate
                    sds = data.std(axis=-2, ddof=1)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        expected = data.mean(axis=-2) / (sds / math.sqrt(n))
                    t, zero = montecarlo._column_t(data)
                    assert t.tobytes() == expected.tobytes(), (m, n, rho)
                    assert np.array_equal(zero, (sds == 0.0).any(axis=-1))
                    assert zero[2] and not zero[3]

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

    def test_one_observation_per_sample_rejected(self):
        # a t statistic needs two observations
        with pytest.raises(ValueError, match="n must be at least 2"):
            SimulationConfig(m=5, pi0=0.4, rho=0.0, n=1, mu_alt=0.7,
                             alpha=0.05, reps=10,
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
        weights, tstats, resampled = _draw_cell(config)
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
            return _draw_cell(SimulationConfig(
                m=5, pi0=0.4, rho=0.0, n=15, mu_alt=0.7, alpha=0.05,
                reps=reps, weight_scenario=WeightScenario.S1, seed=7))

        short_w, short_t, _ = cell(256)
        long_w, long_t, _ = cell(512)
        assert np.array_equal(short_w, long_w[:256])
        assert np.array_equal(short_t, long_t[:256])
        assert not np.array_equal(short_t, long_t[256:])

    def test_wap_outside_whp_raises(self, monkeypatch):
        real = montecarlo.adjust_rows

        def broken(p, w, alpha, key):
            perm, tails, adjusted, rejected = real(p, w, alpha, key)
            if key is OrderingKey.RAW:
                rejected[3:] = True
            return perm, tails, adjusted, rejected

        monkeypatch.setattr(montecarlo, "adjust_rows", broken)
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=15, mu_alt=0.0,
                                  alpha=0.05, reps=10,
                                  weight_scenario=WeightScenario.S2, seed=5)
        with pytest.raises(RuntimeError, match="replicate 3"):
            run_simulation(config)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0, float("inf")])
    def test_invalid_weight_names_the_replicate(self, monkeypatch, bad):
        real = montecarlo.weight_scenario

        def bad_at(kind, null_mask, gen):
            w = real(kind, null_mask, gen)
            w[4, 2] = bad
            return w

        monkeypatch.setattr(montecarlo, "weight_scenario", bad_at)
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=5,
                                  weight_scenario=WeightScenario.S2, seed=5)
        with pytest.raises(ValueError, match="weight must be positive and "
                           f"finite in replicate 4, hypothesis 2: {bad}"):
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

    # 2 full blocks and a last one of 37 rows
    BLOCKED = SimulationConfig(m=6, pi0=0.5, rho=0.3, n=9, mu_alt=0.7,
                               alpha=0.05, reps=2 * 256 + 37,
                               weight_scenario=WeightScenario.S3, seed=81)

    def test_no_call_sees_more_than_a_block(self, monkeypatch):
        rows = {"t_sf": [], "adjust_rows": []}

        def spy(name, real):
            def call(*args):
                rows[name].append(len(args[0]))
                return real(*args)
            return call

        for name in rows:
            monkeypatch.setattr(montecarlo, name,
                                spy(name, getattr(montecarlo, name)))
        run_simulation(self.BLOCKED)
        assert rows == {"t_sf": [256, 256, 37],
                        "adjust_rows": [256] * 3 + [256] * 3 + [37] * 3}

    def test_errors_name_the_replicate_in_the_cell(self, monkeypatch):
        # a bad replicate in row 5 of block 2 is replicate 2 * 256 + 5
        real_sf, real_decide = montecarlo.t_sf, montecarlo.adjust_rows
        blocks = []

        def bad_pvalue_in_block_2(t, df):
            out = real_sf(t, df)
            blocks.append(len(out))
            if len(blocks) == 3:
                out[5, 1] = 1.5
            return out

        monkeypatch.setattr(montecarlo, "t_sf", bad_pvalue_in_block_2)
        with pytest.raises(ValueError, match="replicate 517, hypothesis 1: 1.5"):
            run_simulation(self.BLOCKED)

        def wap_beyond_whp_in_block_2(p, w, alpha, key):
            perm, tails, adjusted, rejected = real_decide(p, w, alpha, key)
            if key is OrderingKey.RAW and len(p) == 37:
                rejected[5:] = True
            return perm, tails, adjusted, rejected

        monkeypatch.setattr(montecarlo, "t_sf", real_sf)
        monkeypatch.setattr(montecarlo, "adjust_rows",
                            wap_beyond_whp_in_block_2)
        with pytest.raises(RuntimeError, match="replicate 517: "):
            run_simulation(self.BLOCKED)

    @pytest.mark.parametrize("m, pi0", [(5, 0.4), (10, 0.8), (20, 0.5)])
    def test_rank_counts_equal_the_index_masks(self, m, pi0):
        # the rank-space counts against the index-order masks
        # on the same seeded blocks, counted as the masks were
        for rho, scenario, seed in ((0.0, WeightScenario.S1, 3),
                                    (0.5, WeightScenario.S2, 4),
                                    (0.5, WeightScenario.S3, 5),
                                    (0.0, WeightScenario.S4, 6)):
            config = SimulationConfig(m=m, pi0=pi0, rho=rho, n=15, mu_alt=0.7,
                                      alpha=0.05, reps=300,
                                      weight_scenario=scenario, seed=seed)
            assert run_simulation(config).records == _records_by_masks(config)

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


def _records_by_masks(config):
    """A cell's records decided by `adjust_rows`'s masks in index order,
    the reference for `run_simulation`'s counts by rank."""
    m0, m1 = config.m0, config.m - config.m0
    familywise = dict.fromkeys(Procedure, 0)
    power_sums = dict.fromkeys(Procedure, 0.0)
    for weights, tstats, _ in montecarlo._draw_blocks(config):
        pvals = t_sf(tstats, config.n - 1)
        masks = {
            Procedure.HOLM: index_masks(pvals, 1.0, config.alpha,
                                        OrderingKey.WEIGHTED),
            Procedure.WHP: index_masks(pvals, weights, config.alpha,
                                       OrderingKey.WEIGHTED),
            Procedure.WAP: index_masks(pvals, weights, config.alpha,
                                       OrderingKey.RAW),
        }
        assert not (masks[Procedure.WAP] & ~masks[Procedure.WHP]).any()
        for proc, mask in masks.items():
            familywise[proc] += int(mask[:, :m0].any(axis=1).sum())
            for k in mask[:, m0:].sum(axis=1).tolist():
                power_sums[proc] += k / m1
    records = {}
    for proc in Procedure:
        fwer = familywise[proc] / config.reps
        power = power_sums[proc] / config.reps
        records[proc] = montecarlo.CellRecord(
            fwer=fwer,
            fwer_se=math.sqrt(fwer * (1.0 - fwer) / config.reps),
            power=power, power_se=math.sqrt(power * (1.0 - power) / config.reps))
    return records


class TestLfcSampler:
    """The least-favorable law of `estimate_sharpness`, one draw at a time:
    `lfc_stepdown_falsifier` at r = 1 with critical values of at least
    1 / sum(w)."""

    def test_is_one_row_of_the_block_sampler(self):
        for seed, w in enumerate(([3.0], [1.0, 2.0, 3.0], [0.1] * 5,
                                  np.linspace(1.0, 9.0, 10).tolist())):
            w = np.array(w)
            gen, block_gen = rng_new(seed), rng_new(seed)
            for _ in range(200):
                sample = lfc_stepdown_falsifier([1.0 / w.sum()] * w.size, w,
                                                1, gen)
                p, selected = _lfc_batch(w, 1.0 / w.sum(), block_gen, 1)
                assert sample.p == tuple(p[0].tolist())
                assert sample.selected == (None if selected[0] == w.size
                                           else selected[0])
            assert gen.bit_generator.state == block_gen.bit_generator.state

    def test_single_null_uniform(self):
        gen = rng_new(29)
        draws = np.array([lfc_stepdown_falsifier([1.0], [3.0], 1, gen).p[0]
                          for _ in range(5000)])
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        assert abs(draws.mean() - 0.5) < 0.03

    def test_marginals_uniform_on_grid(self):
        w = np.array([1.0, 2.0, 3.0])
        samples = _lfc_batch(w, 1.0 / w.sum(), rng_new(31), 200_000)[0]
        grid = np.linspace(0.01, 0.99, 100)
        for col in range(3):
            ecdf = (samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
            assert np.max(np.abs(ecdf - grid)) <= 0.01

    def test_exactly_one_small_weighted_pvalue(self):
        w = np.array([1.0, 2.0, 3.0])
        gen = rng_new(37)
        cut = 1.0 / w.sum()
        for _ in range(500):
            sample = lfc_stepdown_falsifier([1.0] * 3, w, 1, gen)
            tilde = np.asarray(sample.p) / w
            assert int((tilde <= cut).sum()) == 1
            assert tilde[sample.selected] <= cut

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_weight_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="at index 1"):
            lfc_stepdown_falsifier([1.0, 1.0], [1.0, bad], 1, rng_new(29))
        with pytest.raises(ValueError, match="nonempty"):
            lfc_stepdown_falsifier([], [], 1, rng_new(29))


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

    @pytest.mark.parametrize("bad", [float("nan"), -0.01])
    def test_bad_critical_value_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="critical value .* at index 1"):
            lfc_stepdown_falsifier([0.0, bad, 0.05], [1.0, 1.0, 1.0], 1,
                                   rng_new(53))

    def test_later_step_puts_exact_zeros_in_front(self):
        # r = 3: the first two hypotheses are false nulls already rejected
        w = np.array([2.0, 1.5, 1.0, 2.0])
        alpha = 0.05
        crit = [alpha / w[r:].sum() for r in range(4)]
        tau = min(crit[2], 1.0 / w[2:].sum())
        gen = rng_new(73)
        draws = [lfc_stepdown_falsifier(crit, w, 3, gen) for _ in range(50_000)]
        assert all(type(x) is float for d in draws for x in d.p)
        samples = np.array([d.p for d in draws])
        assert np.all(samples[:, :2] == 0.0)
        selected = [d.selected for d in draws]
        assert set(selected) == {None, 2, 3}
        for d in draws:
            tilde = np.asarray(d.p[2:]) / w[2:]
            if d.selected is None:
                assert tilde.min() >= tau
            else:
                assert tilde[d.selected - 2] <= tau
        grid = np.linspace(0.01, 0.99, 100)
        for col in (2, 3):
            ecdf = (samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
            assert np.max(np.abs(ecdf - grid)) <= 0.015


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_total_is_named_by_index(self):
        with pytest.raises(ValueError, match="total overflows at index 2"):
            estimate_sharpness(Procedure.WHP, [1.0, 1e308, 1e308], 3, 10,
                               rng_new(67))

    @pytest.mark.parametrize("alpha", [1.5, float("nan"), 0.0, 1.0])
    def test_alpha_outside_unit_interval_rejected_before_drawing(self, alpha):
        gen = rng_new(67)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\)"):
            estimate_sharpness(Procedure.WHP, [1.0, 2.0], 2, 10, gen, alpha=alpha)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_seeded_output_golden(self, procedure, monkeypatch):
        # the block size sets the stream.  A block of at least `reps` rows is
        # the single draw of earlier versions, whose 0.0504 was recorded with
        # the per-row step-downs that preceded the batched kernel.
        by_block_rows = {1024: 0.04875, 20_000: 0.0504, 10 ** 6: 0.0504}
        assert montecarlo.SHARPNESS_BLOCK_ROWS == 1024
        for block_rows, fwer in by_block_rows.items():
            monkeypatch.setattr(montecarlo, "SHARPNESS_BLOCK_ROWS", block_rows)
            estimate = estimate_sharpness(procedure, [1, 2, 3, 4], 4, 20_000,
                                          rng_new(7))
            assert type(estimate.fwer) is float
            assert estimate.fwer == fwer

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.5])
    def test_invalid_pvalue_names_the_replicate(self, monkeypatch, bad):
        real = montecarlo._lfc_batch
        blocks = []

        def bad_in_block_1(w, tau, gen, size):
            p, selected = real(w, tau, gen, size)
            blocks.append(size)
            if len(blocks) == 2:
                p[5, 1] = bad
            return p, selected

        monkeypatch.setattr(montecarlo, "_lfc_batch", bad_in_block_1)
        with pytest.raises(ValueError, match="p-value out of \\[0, 1\\] in "
                           f"replicate 1029, hypothesis 1: {bad}"):
            estimate_sharpness(Procedure.WHP, [1.0, 2.0, 3.0], 3, 3000,
                               rng_new(71))

    def test_holm_has_no_sharpness_ranking(self):
        gen = rng_new(67)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="WHP or WAP"):
            estimate_sharpness(Procedure.HOLM, [1.0, 2.0], 2, 10, gen)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_first_rank_counts_equal_the_index_masks(self, procedure):
        # a replicate counts when its first rank is rejected; the reference
        # is the index-order mask with any rejection, on the same stream
        for seed, weights in enumerate(([1.0, 2.0, 3.0], [1.0] * 7,
                                        np.linspace(1.0, 9.0, 10), [4.0])):
            m0 = len(weights)
            estimate = estimate_sharpness(procedure, weights, m0, 2500,
                                          rng_new(seed))
            gen, hits = rng_new(seed), 0
            w = np.asarray(weights, dtype=float)
            for start in range(0, 2500, montecarlo.SHARPNESS_BLOCK_ROWS):
                rows = min(montecarlo.SHARPNESS_BLOCK_ROWS, 2500 - start)
                block, _ = _lfc_batch(w, 1.0 / w.sum(), gen, rows)
                hits += int(index_masks(block, w, 0.05, ranking(procedure))
                            .any(axis=1).sum())
            assert estimate.fwer == hits / 2500

    def test_each_block_is_decided_before_the_next_is_drawn(self, monkeypatch):
        # 2 full blocks and a last one of 37 rows
        calls = []

        def spy(name, real):
            def call(*args):
                out = real(*args)
                calls.append((name, len(out[0] if name == "draw" else args[0])))
                return out
            return call

        monkeypatch.setattr(montecarlo, "_lfc_batch",
                            spy("draw", montecarlo._lfc_batch))
        monkeypatch.setattr(montecarlo, "adjust_rows",
                            spy("decide", montecarlo.adjust_rows))
        estimate_sharpness(Procedure.WAP, [1.0, 2.5, 3.0], 3, 2 * 1024 + 37,
                           rng_new(71))
        assert calls == [("draw", 1024), ("decide", 1024),
                         ("draw", 1024), ("decide", 1024),
                         ("draw", 37), ("decide", 37)]
