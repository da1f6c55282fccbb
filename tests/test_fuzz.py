import pytest

from qbag import (
    DFQUAD,
    FuzzConfig,
    PrincipleId,
    QE,
    Removal,
    ShapleyExact,
    random_qbag,
    search_violation,
    topological_order,
)
from qbag.fuzz import _MAX_ARGS_LIMIT
from qbag.rng import SplitMix64


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        # reference values of the published SplitMix64 sequence for seed 0
        assert first == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_below_is_uniformish_and_in_range(self):
        rng = SplitMix64(42)
        draws = [rng.below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_below_rejects_bounds_beyond_one_draw(self):
        # a bound above 2**64 left no accepted draw and looped forever
        assert 0 <= SplitMix64(42).below(1 << 64) < 1 << 64
        with pytest.raises(ValueError):
            SplitMix64(42).below((1 << 64) + 1)

    def test_trial_streams_are_independent(self):
        a = SplitMix64.for_trial(1, 0).next_u64()
        b = SplitMix64.for_trial(1, 1).next_u64()
        c = SplitMix64.for_trial(2, 0).next_u64()
        assert len({a, b, c}) == 3

    def test_shuffle_deterministic(self):
        items = list(range(10))
        SplitMix64(9).shuffle(items)
        again = list(range(10))
        SplitMix64(9).shuffle(again)
        assert items == again


class TestGeneration:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, trials=0)
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, trials=1, max_args=1)
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, trials=1, edge_prob=0.0)
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, trials=1, strength_grid=0.0)
        # argument counts a trial cannot hold in memory, and a draw bound
        # round(1 / strength_grid) + 1 beyond 2**64
        for max_args in (_MAX_ARGS_LIMIT + 1, (1 << 64) + 1, (1 << 64) + 2):
            with pytest.raises(ValueError):
                FuzzConfig(seed=1, trials=1, max_args=max_args)
        assert FuzzConfig(seed=1, trials=1, max_args=_MAX_ARGS_LIMIT).max_args == _MAX_ARGS_LIMIT
        for grid in (1e-200, 1e-320):
            with pytest.raises(ValueError):
                FuzzConfig(seed=1, trials=1, strength_grid=grid)
        # seeds the 64-bit generator state would alias
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
                FuzzConfig(seed=seed, trials=1)
        assert FuzzConfig(seed=(1 << 64) - 1, trials=1).seed == (1 << 64) - 1

    def test_trials_are_reproducible(self):
        config = FuzzConfig(seed=77, trials=50)
        for trial in range(50):
            assert random_qbag(config, trial) == random_qbag(config, trial)

    def test_generated_graphs_are_valid_and_in_bounds(self):
        config = FuzzConfig(seed=5, trials=300)
        sizes = set()
        for trial in range(300):
            g = random_qbag(config, trial)
            sizes.add(len(g))
            assert 2 <= len(g) <= 7
            # acyclicity holds by construction; topological_order must succeed
            assert len(topological_order(g)) == len(g)
            for name in g.arguments:
                tau = g.initial_strength(name)
                assert tau == pytest.approx(round(tau / 0.05) * 0.05, abs=1e-9)
        assert sizes == set(range(2, 8))

    def test_list_order_differs_from_topological_order_sometimes(self):
        config = FuzzConfig(seed=6, trials=100)
        assert any(
            topological_order(g) != list(g.arguments)
            for g in (random_qbag(config, t) for t in range(100))
        )

    def test_support_only_mode(self):
        config = FuzzConfig(seed=8, trials=100, support_only=True)
        for trial in range(100):
            assert random_qbag(config, trial).attacks == ()


class TestSearch:
    def test_finds_known_violation_quickly(self):
        config = FuzzConfig(seed=7, trials=2000)
        witness = search_violation(
            config, DFQUAD, Removal(), PrincipleId.CONTRIBUTION_EXISTENCE
        )
        assert witness is not None
        # the witness replays on the reported graph and topic
        from qbag import run_check

        replay = run_check(
            witness.graph, DFQUAD, Removal(), PrincipleId.CONTRIBUTION_EXISTENCE, witness.topic
        )
        assert replay == witness.report

    def test_search_is_deterministic(self):
        config = FuzzConfig(seed=7, trials=2000)
        w1 = search_violation(config, DFQUAD, Removal(), PrincipleId.CONTRIBUTION_EXISTENCE)
        w2 = search_violation(config, DFQUAD, Removal(), PrincipleId.CONTRIBUTION_EXISTENCE)
        assert w1 == w2

    def test_no_witness_for_a_satisfied_cell(self):
        config = FuzzConfig(seed=7, trials=300)
        witness = search_violation(
            config, QE, ShapleyExact(), PrincipleId.QUANT_CONTRIBUTION_EXISTENCE
        )
        assert witness is None

    def test_finds_local_faithfulness_witness_for_removal(self):
        config = FuzzConfig(seed=101, trials=3000)
        witness = search_violation(config, QE, Removal(), PrincipleId.LOCAL_FAITHFULNESS)
        assert witness is not None
        assert witness.report.witness["contribution"] != 0.0
