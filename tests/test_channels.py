import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crsched.channels import RAYLEIGH_CAP_FACTOR, DeterministicGain, RayleighGain
from crsched.engine import SchedulerKind, SimConfig, Simulation, SuConfig
from crsched.queueing import Bernoulli


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def gain_feeds(direct, interference, seed):
    """A Simulation of users with these channel models and no traffic."""
    return Simulation(SimConfig(
        sus=tuple(
            SuConfig(arrivals=Bernoulli(0.0), delay_bound=1.0, direct=g_d, interference=g)
            for g_d, g in zip(direct, interference)
        ),
        i_avg=1.0,
        scheduler=SchedulerKind("proposed"),
        seed=seed,
    ))


def slot_gains(sim, n):
    """The (direct, interference) gain tuples of the Simulation's first n
    slots, as observed."""
    return [(t.direct, t.interference) for t in sim.observe(n)]


class TestDeterministicGain:
    def test_passes_value_through_exactly(self):
        assert DeterministicGain(1.0).sample_block(rng(), 3).tolist() == [1.0] * 3
        assert DeterministicGain(0.0).sample_block(rng(), 3).tolist() == [0.0] * 3

    def test_cap_defaults_to_value(self):
        assert DeterministicGain(2.5).cap == 2.5

    def test_value_outside_cap_rejected(self):
        with pytest.raises(ValueError):
            DeterministicGain(2.0, cap=1.0)
        with pytest.raises(ValueError):
            DeterministicGain(-0.5)

    def test_block_draws_are_constant(self):
        assert np.array_equal(DeterministicGain(0.7).sample_block(rng(), 5), np.full(5, 0.7))


class TestRayleighGain:
    def test_mean_must_be_positive(self):
        with pytest.raises(ValueError):
            RayleighGain(0.0)
        with pytest.raises(ValueError):
            RayleighGain(-1.0)

    def test_default_cap_is_25x_mean(self):
        assert RayleighGain(0.4).cap == RAYLEIGH_CAP_FACTOR * 0.4

    def test_monte_carlo_mean(self):
        # Oracle: the untruncated power gain is exponential, so its mean is
        # the configured mean and its standard deviation equals the mean;
        # standard error over 10^6 draws is mean/10^3. Truncation at 25x
        # shifts the mean by ~mean*26e-11, far below the tolerance.
        mean = 0.4
        n = 10**6
        draws = RayleighGain(mean).sample_block(rng(123), n)
        tol = 3 * mean / math.sqrt(n)
        assert abs(float(draws.mean()) - mean) <= tol

    def test_scalar_and_block_draws_agree(self):
        # Consecutive block draws replay the scalar numpy sequence.
        model = RayleighGain(0.4)
        block = rng(9)
        blocked = [g for _ in range(4) for g in model.sample_block(block, 16).tolist()]
        scalar = rng(9)
        assert blocked == [min(float(scalar.exponential(0.4)), model.cap) for _ in range(64)]

    @given(
        mean=st.floats(min_value=0.01, max_value=50.0),
        cap_factor=st.floats(min_value=0.1, max_value=30.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_samples_clamped_to_cap(self, mean, cap_factor, seed):
        model = RayleighGain(mean, cap=mean * cap_factor)
        draws = model.sample_block(rng(seed), 200)
        assert float(draws.min()) >= 0.0
        assert float(draws.max()) <= model.cap


class TestChannelBank:
    """The per-user direct and interference feeds of a Simulation."""

    def test_deterministic_passthrough_slot(self):
        models = (DeterministicGain(1.0), DeterministicGain(1.0))
        assert slot_gains(gain_feeds(models, models, seed=0), 1) == [((1.0, 1.0), (1.0, 1.0))]

    def test_same_seed_gives_identical_sequences(self):
        def draws():
            sim = gain_feeds(
                (DeterministicGain(1.0), RayleighGain(0.3)),
                (RayleighGain(0.4), RayleighGain(0.2)),
                seed=42,
            )
            return slot_gains(sim, 50)

        assert draws() == draws()

    def test_per_user_sequence_invariant_to_population(self):
        # User i's gains must not move when more users are simulated.
        def seqs(n):
            sim = gain_feeds(
                tuple(RayleighGain(0.3) for _ in range(n)),
                tuple(RayleighGain(0.5) for _ in range(n)),
                seed=11,
            )
            samples = slot_gains(sim, 30)
            return {
                i: [(direct[i], interference[i]) for direct, interference in samples]
                for i in range(n)
            }

        two, three = seqs(2), seqs(3)
        assert two[0] == three[0]
        assert two[1] == three[1]

    def test_per_user_empirical_means(self):
        # Table-style pair of faded interference links; standard error of
        # each mean over 10^6 slots is mean/10^3 (exponential: std = mean).
        n = 10**6
        sim = gain_feeds(
            (DeterministicGain(1.0), DeterministicGain(1.0)),
            (RayleighGain(0.4), RayleighGain(0.2)),
            seed=3,
        )
        # Read from the input blocks: observing 10^6 slots one by one is slow.
        slots = []
        while len(slots) < n:
            sim._fill_block()
            slots += zip(*(su.interference for su in sim.sus))
        for i, want in enumerate((0.4, 0.2)):
            got = sum(interference[i] for interference in slots[:n]) / n
            assert abs(got - want) <= 3 * want / math.sqrt(n)

    def test_mismatched_model_lists_rejected(self):
        # Each SuConfig carries both of its models, so the two lists cannot
        # differ in length; an empty population is still refused.
        with pytest.raises(ValueError, match="need at least one user"):
            SimConfig(sus=(), i_avg=1.0, scheduler=SchedulerKind("proposed"))
