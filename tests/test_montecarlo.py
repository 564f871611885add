import math
import sys

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.integrate import quad
from scipy.special import stdtr

from test_procedures import index_masks
from wholm import (DegenerateSampleError, OrderingKey, Procedure,
                   SimulationConfig, WeightScenario, estimate_sharpness,
                   holm_stepdown, lfc_stepdown_falsifier, run_simulation,
                   sample_equicorrelated, t_sf,
                   validate_problem, wap_stepdown, weight_scenario,
                   whp_stepdown)
from wholm import montecarlo, procedures
from wholm.montecarlo import _lfc_batch
from wholm.procedures import adjust_rows, rank, ranking


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


class TestEquicorrelated:
    def test_independent_columns(self):
        data = sample_equicorrelated(3, 0.0, [0.0, 0.0, 0.0], 10 ** 5, default_rng(1))
        corr = np.corrcoef(data.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.01)

    def test_high_correlation(self):
        data = sample_equicorrelated(2, 0.9, [0.0, 0.0], 10 ** 5,
                                     default_rng(2))
        corr = np.corrcoef(data.T)[0, 1]
        assert abs(corr - 0.9) < 0.01

    def test_column_means(self):
        mu = [0.7, 0.0, 0.0]
        data = sample_equicorrelated(3, 0.3, mu, 10 ** 5, default_rng(3))
        assert np.all(np.abs(data.mean(axis=0) - mu) < 0.01)

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="rho"):
            sample_equicorrelated(2, 1.0, [0.0, 0.0], 10, default_rng(4))

    def test_equals_the_one_factor_expression_bit_for_bit(self):
        # the in-place construction against the expression it replaced
        for m in range(1, 21):
            for n in range(2, 31):
                for rho in (0.0, 0.5):
                    mu = [0.0] * (m // 2) + [0.7] * (m - m // 2)
                    seed = 1000 * m + 10 * n + int(2 * rho)
                    gen = default_rng(seed)
                    z0 = gen.standard_normal((n, 1))
                    z = gen.standard_normal((n, m))
                    expected = (math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * z
                                + np.asarray(mu))
                    data = sample_equicorrelated(m, rho, mu, n,
                                                 default_rng(seed))
                    assert data.tobytes() == expected.tobytes(), (m, n, rho)


class TestTPvalue:
    def test_t14_percentile(self):
        # 1.7613 is the 95th percentile of t with 14 degrees of freedom
        assert t_sf(1.7613, 14) == pytest.approx(0.05, abs=1e-4)

    def test_matches_quadrature_oracle(self):
        gen = default_rng(11)
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

    @pytest.mark.filterwarnings("error")
    def test_matches_stdtr_at_every_df_to_200(self):
        # an independent oracle, scipy's stdtr at -t: relative error wherever
        # its tail is at least 1e-300 and absolute error everywhere, with no
        # warning at the ends.  At df = 1 the oracle is the Cauchy law's
        # closed form, since stdtr is 1.6e-9 off there
        gen = default_rng(29)
        ends = np.array([0.0, 1e-12, 8.1e-6, 40.0, 1e200, np.inf])
        t = np.concatenate([ends, -ends, [np.nan],
                            gen.normal(scale=4.0, size=2000),
                            gen.uniform(-80.0, 80.0, size=2000)])
        for df in range(1, 201):
            tail = t_sf(t, df)
            oracle = (np.arctan2(1.0, t) / np.pi if df == 1
                      else stdtr(df, -t))
            assert np.array_equal(np.isnan(tail), np.isnan(t)), df
            error = np.abs(tail - oracle)
            assert np.nanmax(error) <= 1e-14, df
            far = oracle >= 1e-300
            assert (error[far] / oracle[far]).max() <= 1e-13, df

    @pytest.mark.filterwarnings("error")
    def test_ends_and_shapes_are_exact(self):
        for df in (1, 2, 3, 14, 15, np.int64(200), 201):
            assert t_sf(0.0, df) == t_sf(-0.0, df) == 0.5
            assert t_sf(np.inf, df) == 0.0 and t_sf(-np.inf, df) == 1.0
            assert math.isnan(t_sf(np.nan, df))
            assert type(t_sf(1.5, df)) is float
            grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
            tail = t_sf(grid, df)
            assert tail.shape == (3, 4)
            assert tail.tolist() == [[t_sf(x, df) for x in row]
                                     for row in grid.tolist()]

    @pytest.mark.parametrize("df", [0, -3, 2.5, 14.0, np.array([2, 14]),
                                    np.array([14]), "14", None])
    def test_df_must_be_an_integer_of_at_least_one(self, df):
        with pytest.raises(ValueError, match="df must be an integer"):
            t_sf(1.0, df)

    def test_column_t_equals_numpy_mean_and_std_bit_for_bit(self):
        # the one-sum statistics against the numpy expressions they replaced
        for m in range(1, 21):
            for n in range(2, 31):
                for rho in (0.0, 0.5):
                    gen = default_rng(1000 * m + 10 * n + int(2 * rho))
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

    @pytest.mark.filterwarnings("error")
    def test_column_t_masks_an_infinite_sd_without_a_warning(self):
        # a squared deviation that overflows makes the sd infinite, which
        # counts as degenerate the way a zero sd does
        data = default_rng(21).standard_normal((3, 3, 2))
        # the mean of three equal values 1e267 off them
        data[0, :, 1] = 8.051552285495614e+282
        data[1, :, 0] = [1e200, -1e200, 0.0]
        t, degenerate = montecarlo._column_t(data)
        assert degenerate.tolist() == [True, True, False]
        assert np.isfinite(t[2]).all()

    def test_null_pvalues_superuniform(self):
        # the library's own statistic, as run_simulation computes it
        reps = 20_000
        draws = default_rng(13).standard_normal((reps, 15, 1))
        tstats, zero = montecarlo._column_t(draws)
        assert not zero.any()
        pvals = t_sf(tstats[:, 0], 14)
        for x in np.linspace(0.01, 0.99, 25):
            se = math.sqrt(x * (1 - x) / reps)
            assert (pvals <= x).mean() <= x + 3 * se


class TestWeightScenarios:
    def test_s4_range(self):
        w = weight_scenario(WeightScenario.S4, [True, False, True], default_rng(17))
        assert np.all((w >= 1.0) & (w <= 6.0))

    def test_s1_split(self):
        mask = [True, False, False, False]
        w = weight_scenario(WeightScenario.S1, mask, default_rng(19))
        assert 1.0 <= w[0] <= 2.0
        assert np.all((w[1:] >= 6.0) & (w[1:] <= 10.0))

    def test_s2_alt_mean(self):
        gen = default_rng(23)
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
        mask = default_rng(29).uniform(size=(300, 7)) < 0.4
        w = weight_scenario(scenario, mask, default_rng(31))
        assert w.shape == mask.shape
        for entries, (lo, hi) in ((w[mask], null_range), (w[~mask], alt_range)):
            assert np.all((entries >= lo) & (entries <= hi))
            # both ends of the range are reached, so no other range fits
            assert entries.min() < lo + 0.05 * (hi - lo)
            assert entries.max() > hi - 0.05 * (hi - lo)
        # one row of a 2-D mask draws exactly what the 1-D mask draws
        assert np.array_equal(
            weight_scenario(scenario, mask[:1], default_rng(37))[0],
            weight_scenario(scenario, mask[0], default_rng(37)))


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

    @pytest.mark.parametrize("m, pi0, m0", [
        (1, 1e-10, 0), (1, 1.0 - 1e-10, 1), (3, 1e-12, 0),
        (3, 1.0 - 1e-12, 3)])
    def test_every_or_no_hypothesis_null_refused(self, m, pi0, m0):
        # m * pi0 is within 1e-9 of an integer, but it leaves no false null
        # (no power to estimate) or no true null (no familywise error)
        message = f"one true and one false null: m0 = {m0} of m = {m}"
        with pytest.raises(ValueError, match=message):
            SimulationConfig(m=m, pi0=pi0, rho=0.0, n=15, mu_alt=0.7,
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

    @pytest.mark.parametrize("mu_alt", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_alt_rejected(self, mu_alt):
        # a non-finite shift makes every false null's p-value NaN
        with pytest.raises(ValueError, match="mu_alt must be finite"):
            SimulationConfig(m=5, pi0=0.4, rho=0.0, n=15, mu_alt=mu_alt,
                             alpha=0.05, reps=10,
                             weight_scenario=WeightScenario.S2, seed=1)

    @pytest.mark.parametrize("mu_alt", [1e308, -1e308])
    def test_mu_alt_whose_sum_overflows_rejected(self, mu_alt):
        # the t statistic sums n observations near mu_alt, which overflowed
        # into NaN p-values; the largest shift whose n-fold is finite passes
        def config(mu_alt):
            return SimulationConfig(m=4, pi0=0.5, rho=0.0, n=5, mu_alt=mu_alt,
                                    alpha=0.05, reps=10,
                                    weight_scenario=WeightScenario.S4, seed=1)

        with pytest.raises(ValueError, match="mu_alt = .*, n = 5"):
            run_simulation(config(mu_alt))
        assert config(math.copysign(sys.float_info.max / 5, mu_alt)).n == 5


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
            gen = default_rng(children[b])
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

    @staticmethod
    def _break_wap(monkeypatch, first, block=None):
        """Make `run_simulation`'s WAP decisions reject every hypothesis of
        the replicates from row `first` on, in every block or in the block
        of `block` rows.  WAP decides on the view `rank` returns under RAW
        (Holm on a copy of it with unit weights), so the views ranked by
        raw p are recorded and WAP's is told apart by identity."""
        real_rank, real_decide = montecarlo.rank, montecarlo.adjust_rows
        raw = []

        def recorded(p, w, key):
            view = real_rank(p, w, key)
            if key is OrderingKey.RAW:
                raw.append(view)
            return view

        def broken(ranked, alpha):
            tails, adjusted, rejected = real_decide(ranked, alpha)
            if (any(ranked is view for view in raw)
                    and block in (None, len(ranked.p))):
                rejected[first:] = True
            return tails, adjusted, rejected

        monkeypatch.setattr(montecarlo, "rank", recorded)
        monkeypatch.setattr(montecarlo, "adjust_rows", broken)

    def test_wap_outside_whp_raises(self, monkeypatch):
        self._break_wap(monkeypatch, 3)
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
        rows = {"t_sf": [], "rank": [], "adjust_rows": []}

        def spy(name, real):
            def call(*args):
                # `adjust_rows` is handed a ranked view, the others arrays
                rows[name].append(len(getattr(args[0], "p", args[0])))
                return real(*args)
            return call

        for name in rows:
            monkeypatch.setattr(montecarlo, name,
                                spy(name, getattr(montecarlo, name)))
        run_simulation(self.BLOCKED)
        assert rows == {"t_sf": [256, 256, 37],
                        "rank": [256] * 2 + [256] * 2 + [37] * 2,
                        "adjust_rows": [256] * 3 + [256] * 3 + [37] * 3}

    def test_errors_name_the_replicate_in_the_cell(self, monkeypatch):
        # a bad replicate in row 5 of block 2 is replicate 2 * 256 + 5
        real_sf = montecarlo.t_sf
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

        monkeypatch.setattr(montecarlo, "t_sf", real_sf)
        self._break_wap(monkeypatch, 5, block=37)
        with pytest.raises(RuntimeError, match="replicate 517: "):
            run_simulation(self.BLOCKED)

    @pytest.mark.parametrize("m, pi0", [(5, 0.4), (10, 0.8), (20, 0.5)])
    def test_counts_equal_the_one_row_stepdowns(self, m, pi0):
        # the block counts against the step-downs run one replicate at a
        # time on the same seeded blocks
        for rho, scenario, seed in ((0.0, WeightScenario.S1, 3),
                                    (0.5, WeightScenario.S2, 4),
                                    (0.5, WeightScenario.S3, 5),
                                    (0.0, WeightScenario.S4, 6)):
            config = SimulationConfig(m=m, pi0=pi0, rho=rho, n=15, mu_alt=0.7,
                                      alpha=0.05, reps=300,
                                      weight_scenario=scenario, seed=seed)
            assert (run_simulation(config).records
                    == _records_by_stepdowns(config))

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sample_redrawn_once(self, monkeypatch):
        real = montecarlo.sample_equicorrelated
        calls = []

        def overflowing_row_in_block_draw(m, rho, mu, n, gen):
            # one value of replicate 1 in the block draw puts its squared
            # deviation past the float range; the redraw that follows is real
            calls.append(n)
            data = real(m, rho, mu, n, gen)
            if len(calls) == 1:
                data.reshape(3, 15, m)[1, 0, -1] = 1e300
            return data

        monkeypatch.setattr(montecarlo, "sample_equicorrelated",
                            overflowing_row_in_block_draw)
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=15, mu_alt=0.7,
                                  alpha=0.05, reps=3,
                                  weight_scenario=WeightScenario.S2, seed=5)
        assert run_simulation(config).resampled == 1
        assert calls == [45, 15]

    @pytest.mark.filterwarnings("error")
    def test_cell_whose_squares_overflow_raises(self):
        # n = 3 observations near 8.05e282 have a mean 1e267 off them, so
        # every replicate and its redraw has an infinite sd, whose t
        # statistic of 0 would give every procedure a power of 0
        config = SimulationConfig(m=4, pi0=0.5, rho=0.0, n=3,
                                  mu_alt=8.051552285495614e+282, alpha=0.05,
                                  reps=200, weight_scenario=WeightScenario.S2,
                                  seed=1)
        with pytest.raises(DegenerateSampleError, match="zero or not finite"):
            run_simulation(config)


def _records_by_stepdowns(config):
    """A cell's records decided replicate by replicate by the one-row
    `whp_stepdown`, `wap_stepdown` and `holm_stepdown` of its p-values and
    weights: the reference for `run_simulation`'s block counts."""
    m0, m1 = config.m0, config.m - config.m0
    labels = [f"H{i + 1}" for i in range(config.m)]
    familywise = dict.fromkeys(Procedure, 0)
    power_sums = dict.fromkeys(Procedure, 0.0)
    for weights, tstats, _ in montecarlo._draw_blocks(config):
        pvals = t_sf(tstats, config.n - 1)
        for p, w in zip(pvals.tolist(), weights.tolist()):
            problem = validate_problem(labels, p, w, config.alpha)
            sets = {Procedure.HOLM: holm_stepdown(p, config.alpha).rejected,
                    Procedure.WHP: whp_stepdown(problem).rejected,
                    Procedure.WAP: wap_stepdown(problem).rejected}
            assert sets[Procedure.WAP] <= sets[Procedure.WHP]
            for proc, rejected in sets.items():
                familywise[proc] += any(i < m0 for i in rejected)
                power_sums[proc] += sum(i >= m0 for i in rejected) / m1
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
    """The least-favorable law of `estimate_sharpness`, drawn by
    `lfc_stepdown_falsifier` at r = 1 with critical values of at least
    1 / sum(w)."""

    def test_is_the_block_sampler(self):
        for seed, w in enumerate(([3.0], [1.0, 2.0, 3.0], [0.1] * 5,
                                  np.linspace(1.0, 9.0, 10).tolist())):
            w = np.array(w)
            gen, block_gen = default_rng(seed), default_rng(seed)
            p, selected = lfc_stepdown_falsifier([1.0 / w.sum()] * w.size, w,
                                                 1, gen, 200)
            block_p, block_selected = _lfc_batch(w, 1.0 / w.sum(), block_gen,
                                                 200)
            assert p.tobytes() == block_p.tobytes()
            assert np.array_equal(selected, block_selected)
            assert gen.bit_generator.state == block_gen.bit_generator.state

    def test_single_null_uniform(self):
        p, _ = lfc_stepdown_falsifier([1.0], [3.0], 1, default_rng(29), 5000)
        draws = p[:, 0]
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        assert abs(draws.mean() - 0.5) < 0.03

    def test_marginals_uniform_on_grid(self):
        w = np.array([1.0, 2.0, 3.0])
        samples = _lfc_batch(w, 1.0 / w.sum(), default_rng(31), 200_000)[0]
        grid = np.linspace(0.01, 0.99, 100)
        for col in range(3):
            ecdf = (samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
            assert np.max(np.abs(ecdf - grid)) <= 0.01

    def test_exactly_one_small_weighted_pvalue(self):
        w = np.array([1.0, 2.0, 3.0])
        cut = 1.0 / w.sum()
        p, selected = lfc_stepdown_falsifier([1.0] * 3, w, 1, default_rng(37),
                                             500)
        tilde = p / w
        assert np.all((tilde <= cut).sum(axis=1) == 1)
        assert np.all(tilde[np.arange(500), selected] <= cut)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_weight_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="at index 1"):
            lfc_stepdown_falsifier([1.0, 1.0], [1.0, bad], 1, default_rng(29),
                                   1)
        with pytest.raises(ValueError, match="nonempty"):
            lfc_stepdown_falsifier([], [], 1, default_rng(29), 1)


def _enlarged(crit, r, eps):
    """The critical values with c_r raised by eps and the later ones raised
    only as far as keeps them nondecreasing."""
    crit = np.array(crit)
    crit[r - 1] += eps
    return np.maximum.accumulate(crit)


def _stepdown_counts(p, w, crit):
    """How many hypotheses a step-down on p/w against the critical values
    `crit`, by rank, rejects in each row."""
    below = np.sort(p / w, axis=1) <= crit
    return np.logical_and.accumulate(below, axis=1).sum(axis=1)


class TestFalsifier:
    W = np.array([1.0, 2.0, 3.0, 1.5])

    def test_marginals_uniform(self):
        w = np.array([1.5, 1.0, 2.0])
        alpha = 0.05
        crit = [alpha / w[r:].sum() for r in range(3)]
        samples, _ = lfc_stepdown_falsifier(crit, w, 1, default_rng(41),
                                            50_000)
        grid = np.linspace(0.01, 0.99, 100)
        for col in range(3):
            ecdf = (samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
            assert np.max(np.abs(ecdf - grid)) <= 0.015

    def test_selected_index_beats_tau(self):
        w = np.array([1.0, 2.0, 3.0])
        crit = [0.008, 0.0125, 0.0167]
        tau = min(crit[0], 1.0 / w.sum())
        p, selected = lfc_stepdown_falsifier(crit, w, 1, default_rng(43), 300)
        tilde = (p / w)[selected < w.size]
        assert np.all(tilde.min(axis=1) <= tau + 1e-15)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_whp_critical_values_attain_alpha(self, r):
        # the r - 1 zeros are rejected first, so a familywise error is a
        # rejection among the columns from r - 1 on
        w, alpha, reps = self.W, 0.05, 50_000
        crit = [alpha / w[j:].sum() for j in range(w.size)]
        p, _ = lfc_stepdown_falsifier(crit, w, r, default_rng(47 + r), reps)
        rejected = adjust_rows(rank(p, w, OrderingKey.WEIGHTED), alpha)[2]
        rate = rejected[:, r - 1:].any(axis=1).mean()
        se = math.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rate - alpha) <= 4 * se

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_an_enlarged_critical_value_exceeds_alpha(self, r):
        # the paper's optimality result: raising c_r by eps raises the FWER
        # under the falsifier to alpha + eps * T_r, T_r = sum of w_j, j >= r
        w, alpha, reps = self.W, 0.05, 50_000
        crit = [alpha / w[j:].sum() for j in range(w.size)]
        eps = 0.2 * crit[r - 1]
        enlarged = _enlarged(crit, r, eps)
        p, _ = lfc_stepdown_falsifier(enlarged, w, r, default_rng(89 + r),
                                      reps)
        rate = (_stepdown_counts(p, w, enlarged) >= r).mean()
        target = alpha + eps * w[r - 1:].sum()
        se = math.sqrt(target * (1 - target) / reps)
        assert abs(rate - target) <= 4 * se

    def test_bad_inputs(self):
        gen = default_rng(53)
        with pytest.raises(ValueError, match="nondecreasing"):
            lfc_stepdown_falsifier([0.05, 0.01], [1.0, 1.0], 1, gen, 1)
        with pytest.raises(ValueError, match="r must lie"):
            lfc_stepdown_falsifier([0.01, 0.05], [1.0, 1.0], 3, gen, 1)

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected_before_drawing(self, size):
        gen = default_rng(53)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="size must be at least 1"):
            lfc_stepdown_falsifier([0.01, 0.05], [1.0, 1.0], 1, gen, size)
        assert gen.bit_generator.state == state

    # a weight whose reciprocal overflows is refused too: the law draws p/w
    # up to 1/w
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0,
                                     1e-320, 1e-310, 2.0 ** -1024])
    def test_bad_weight_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="at index 1"):
            lfc_stepdown_falsifier([0.01, 0.05], [1.0, bad], 1, default_rng(53),
                                   1)

    @pytest.mark.parametrize("bad", [float("nan"), -0.01])
    def test_bad_critical_value_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="critical value .* at index 1"):
            lfc_stepdown_falsifier([0.0, bad, 0.05], [1.0, 1.0, 1.0], 1,
                                   default_rng(53), 1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_one_row_is_a_block_of_one_behind_zeros(self, r):
        w = self.W
        crit = [0.05 / w[j:].sum() for j in range(w.size)]
        tau = min(crit[r - 1], 1.0 / w[r - 1:].sum())
        gen, block_gen = default_rng(61 + r), default_rng(61 + r)
        for _ in range(50):
            p, selected = lfc_stepdown_falsifier(crit, w, r, gen, 1)
            block_p, block_selected = _lfc_batch(w[r - 1:], tau, block_gen, 1)
            assert p.shape == (1, w.size) and p.dtype == np.float64
            assert p.tobytes() == np.hstack(
                (np.zeros((1, r - 1)), block_p)).tobytes()
            assert np.array_equal(selected, block_selected + r - 1)
        assert gen.bit_generator.state == block_gen.bit_generator.state

    def test_later_step_puts_exact_zeros_in_front(self):
        # r = 3: the first two hypotheses are false nulls already rejected
        w = np.array([2.0, 1.5, 1.0, 2.0])
        alpha = 0.05
        crit = [alpha / w[r:].sum() for r in range(4)]
        tau = min(crit[2], 1.0 / w[2:].sum())
        samples, selected = lfc_stepdown_falsifier(crit, w, 3, default_rng(73),
                                                   50_000)
        assert samples.shape == (50_000, 4) and samples.dtype == np.float64
        assert np.all(samples[:, :2] == 0.0)
        assert set(selected.tolist()) == {2, 3, 4}
        tilde = samples[:, 2:] / w[2:]
        none = selected == 4
        assert np.all(tilde[none].min(axis=1) >= tau)
        assert np.all(tilde[~none, selected[~none] - 2] <= tau)
        grid = np.linspace(0.01, 0.99, 100)
        for col in (2, 3):
            ecdf = (samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
            assert np.max(np.abs(ecdf - grid)) <= 0.015


class TestSharpness:
    def test_whp_attains_alpha(self):
        estimate = estimate_sharpness(Procedure.WHP, [1.0, 2.0, 3.0], 3,
                                      50_000, default_rng(59))
        assert abs(estimate.fwer - 0.05) < 0.006

    def test_wap_ratio_condition_enforced(self):
        with pytest.raises(ValueError, match="min\\(w\\)/max\\(w\\)"):
            estimate_sharpness(Procedure.WAP, [1.0, 100.0], 2, 100, default_rng(61))

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError, match="reps"):
            estimate_sharpness(Procedure.WHP, [1.0], 1, 0, default_rng(67))

    # a weight whose reciprocal overflows is refused too: the law draws p/w
    # up to 1/w
    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0, float("inf"),
                                     1e-320, 1e-310])
    def test_bad_weight_is_named_by_index(self, bad):
        with pytest.raises(ValueError, match="at index 2"):
            estimate_sharpness(Procedure.WHP, [1.0, 2.0, bad], 3, 10, default_rng(67))

    def test_smallest_weight_with_a_finite_reciprocal_is_decided(self):
        # the next weight down, 2^-1024, is refused: 1/w overflows
        tiny = np.nextafter(2.0 ** -1024, 1.0)
        estimate = estimate_sharpness(Procedure.WHP, [tiny, 1.0], 2, 2000,
                                      default_rng(67))
        assert 0.0 <= estimate.fwer <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_total_is_named_by_index(self):
        with pytest.raises(ValueError, match="total overflows at index 2"):
            estimate_sharpness(Procedure.WHP, [1.0, 1e308, 1e308], 3, 10,
                               default_rng(67))

    @pytest.mark.parametrize("alpha", [1.5, float("nan"), 0.0, 1.0])
    def test_alpha_outside_unit_interval_rejected_before_drawing(self, alpha):
        gen = default_rng(67)
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
                                          default_rng(7))
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
                               default_rng(71))

    def test_holm_has_no_sharpness_ranking(self):
        gen = default_rng(67)
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
                                          default_rng(seed))
            gen, hits = default_rng(seed), 0
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
                calls.append((name, len(out[0] if name == "draw"
                                        else args[0].p)))
                return out
            return call

        monkeypatch.setattr(montecarlo, "_lfc_batch",
                            spy("draw", montecarlo._lfc_batch))
        monkeypatch.setattr(montecarlo, "adjust_rows",
                            spy("decide", montecarlo.adjust_rows))
        estimate_sharpness(Procedure.WAP, [1.0, 2.5, 3.0], 3, 2 * 1024 + 37,
                           default_rng(71))
        assert calls == [("draw", 1024), ("decide", 1024),
                         ("draw", 1024), ("decide", 1024),
                         ("draw", 37), ("decide", 37)]


def test_one_ranking_per_key_per_block(monkeypatch):
    # every ranking is made by `procedures.rank`: two per `run_simulation`
    # block, by raw p (WAP's view, which Holm reads with unit weights) and
    # by p/w (WHP's), and one per `estimate_sharpness` block
    real, callers = procedures.rank_rows, []

    def counted(*args):
        caller = sys._getframe(1)
        callers.append((caller.f_globals["__name__"], caller.f_code.co_name))
        return real(*args)

    monkeypatch.setattr(procedures, "rank_rows", counted)
    run_simulation(TestRunSimulation.BLOCKED)
    assert callers == [("wholm.procedures", "rank")] * 2 * 3
    callers.clear()
    for procedure in (Procedure.WHP, Procedure.WAP):
        estimate_sharpness(procedure, [1.0, 2.5, 3.0], 3, 2 * 1024 + 37,
                           default_rng(71))
    assert callers == [("wholm.procedures", "rank")] * 2 * 3
