"""Each round's generator: a policy's kept PCG64, reseeded in C
(``_cstep.round_seed``), draws ``round_rng``'s bits; the load check declines
a seeding that does not, and every policy then builds ``round_rng``."""
import copy
import ctypes
import itertools
import pickle

import numpy as np
import pytest

from banditlab import _cstep, core
from banditlab.env import two_class_bumps
from banditlab.policies import POLICIES, POLICY_PARAM_KEYS, make_policy
from banditlab.runner import build_env, run_policy
from conftest import CAN_BUILD, PASS_IDS, PASS_STEPS, SUITE_SPEC, compiled_step, held_bytes

needs_seeding = pytest.mark.skipif(_cstep.ROUND_SEED is None,
                                   reason="the compiled seeding is not built or declined")
EDGES = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
# Each kind of draw the policies make, and a 64-bit integers.  Each kind is
# drawn three times: the later draws read the state the first left, and
# three 32-bit draws leave half a word buffered for the next reseed to drop
# (integers(2) never rejects the stale buffer's 0).
DRAWS = {
    "uniform": lambda g: g.uniform(),
    "integers": lambda g: g.integers(7),
    "integers2": lambda g: g.integers(2),
    "integers64": lambda g: g.integers(2 ** 40),
    "beta": lambda g: g.beta([0.2, 0.9, 1.0, 3.5], [0.6, 0.4, 1.0, 2.0]),
    "standard_normal": lambda g: g.standard_normal(10),
    "uniform_size": lambda g: g.uniform(size=5),
}
# The ids that draw every round, and lnucb-ta with the seeded tie rule.
DRAWING = [(pid, {}) for pid in ("eps-greedy", "beta-thompson", "linthompson", "random",
                                 "enhanced-eps-greedy", "enhanced-beta-thompson",
                                 "enhanced-linthompson")] + [
    ("lnucb-ta", {"tie_break": "seeded-random"})]
TIE_BREAK_IDS = sorted(pid for pid in POLICIES if "tie_break" in POLICY_PARAM_KEYS[pid])


def draws(gen, kind):
    return b"".join(np.asarray(DRAWS[kind](gen)).tobytes() for _ in range(3))


def selections(policy, start, xs, rewards):
    """The arms the policy picks from round start on, each updated with its
    reward from the rewards table."""
    arms = []
    for t, x in enumerate(xs, start):
        arms.append(policy.select(x, t))
        policy.update(arms[-1], x, float(rewards[t - start, arms[-1]]))
    return arms


@pytest.mark.skipif(not CAN_BUILD, reason="no cffi or no cc")
def test_compiled_seeding_is_active(monkeypatch):
    # Every drawing policy runs 50 rounds with round_rng raising: a load
    # check that declined without a word would leave every twin test on
    # round_rng, and fails here.
    assert _cstep.ROUND_SEED is not None

    def fresh(*args):
        raise AssertionError("round_rng ran")

    monkeypatch.setattr(core, "round_rng", fresh)
    env = two_class_bumps(3, 50)
    for pid, params in DRAWING:
        policy = make_policy(pid, env.n_arms, env.dim, seed=3, **params)
        result, _ = run_policy(env, policy, 50, 3)
        assert result.matched_steps == 50, pid


@needs_seeding
@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_the_kept_generator_draws_round_rngs_bits_at_the_edges(kind):
    for seed in EDGES:
        policy = make_policy("random", 3, 1, seed=seed)
        for round in EDGES:
            gen = policy._rng(round)
            assert gen is policy._gen
            assert draws(gen, kind) == draws(core.round_rng(seed, round), kind), (seed, round)


@pytest.mark.parametrize("seed, round", [(2 ** 64, 0), (2 ** 70, 5), (3, 2 ** 64),
                                         (2 ** 70, 2 ** 70)])
def test_seeds_and_rounds_past_64_bits_build_round_rng(seed, round):
    policy = make_policy("random", 3, 1, seed=seed)
    for kind in DRAWS:
        assert draws(policy._rng(round), kind) == draws(core.round_rng(seed, round), kind)
    # A fresh round_rng: the generator a policy keeps (at a seed below 2**64,
    # from when it is made) is not reseeded.
    assert policy._rng(round) is not getattr(policy, "_gen", None)


def test_a_negative_round_raises_as_round_rng_does():
    with pytest.raises(ValueError, match="negative"):
        core.round_rng(3, -1)
    with pytest.raises(ValueError, match="negative"):
        make_policy("random", 3, 1, seed=3)._rng(-1)


@pytest.fixture(scope="module")
def seeded_runs():
    """{round id: {policy id: result arrays}} of every id that takes tie_break,
    with the seeded rule, on the suite env at T = 300, under each round."""
    env, out = build_env(SUITE_SPEC), {}
    for blas, round_id in zip(PASS_STEPS, PASS_IDS):
        with compiled_step(blas=blas):
            out[round_id] = {}
            for pid in TIE_BREAK_IDS:
                policy = make_policy(pid, env.n_arms, env.dim, seed=4, tie_break="seeded-random")
                result, _ = run_policy(env, policy, 300, 4)
                out[round_id][pid] = [result.matched_steps] + [
                    a.tobytes() for a in (result.cumulative_reward, result.mean_reward,
                                          result.cumulative_regret)]
    return out


@pytest.mark.skipif(len(PASS_STEPS) < 2, reason="the compiled steps are not built")
@pytest.mark.parametrize("pid", TIE_BREAK_IDS)
def test_the_seeded_tie_rule_gives_the_same_bits_under_both_rounds(seeded_runs, pid):
    assert seeded_runs["numpy"][pid] == seeded_runs["compiled"][pid]
    assert seeded_runs["numpy"][pid][0] == 300


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
@pytest.mark.parametrize("pid, params", [("eps-greedy", {"eps": 0.5}), ("beta-thompson", {}),
                                         ("random", {}), ("ucb", {"tie_break": "seeded-random"})])
def test_a_copied_policy_draws_alone(pid, params, how):
    # A copy mid-run picks what the original picks; each reseeds its own
    # generator, so a reseed of one does not move the other's draws.  Where
    # the compiled run takes the id, a second copy goes on in run_rounds with
    # the original's rewards and state.
    rng = np.random.default_rng(6)
    xs, rewards = rng.standard_normal((100, 2)), rng.uniform(size=(100, 3))
    policy = make_policy(pid, 3, 2, seed=5, **params)
    selections(policy, 0, xs[:50], rewards[:50])
    copies = [copy.deepcopy(policy) if how == "deepcopy" else pickle.loads(pickle.dumps(policy))
              for _ in range(2)]
    twin, out = copies[0], np.zeros(100)
    arms = selections(policy, 50, xs[50:], rewards[50:])
    assert selections(twin, 50, xs[50:], rewards[50:]) == arms
    if policy._runs_in_c():
        assert copies[1]._run(xs, rewards, 3, None, None, 50, out) == 100
        assert out[50:].tobytes() == rewards[np.arange(50, 100), arms].tobytes()
        assert [h for h in held_bytes(copies[1]) if h[0] != "policy._selected"] == [
            h for h in held_bytes(policy) if h[0] != "policy._selected"]
        assert copies[1]._gen.bit_generator.state == policy._gen.bit_generator.state
    mine, theirs = policy._rng(7), twin._rng(8)
    assert mine is not theirs
    assert draws(mine, "uniform_size") == draws(core.round_rng(5, 7), "uniform_size")
    assert draws(theirs, "uniform_size") == draws(core.round_rng(5, 8), "uniform_size")


def halves_swapped(seeding):
    """seeding, then the 64-bit halves of the PCG64 state and increment
    swapped: numpy's emulated 128-bit layout, read as native integers."""
    def swapped(address, seed, round):
        seeding(address, seed, round)
        words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
        words[:] = [words[1], words[0], words[3], words[2]]
    return swapped


@needs_seeding
def test_the_load_check_declines_another_layout_and_a_stub(monkeypatch):
    # The stub is what round_seed compiles to without 128-bit integers.
    assert _cstep.checked_seeding(_cstep.ROUND_SEED) is _cstep.ROUND_SEED
    for seeding in (halves_swapped(_cstep.ROUND_SEED), lambda *args: None):
        assert _cstep.checked_seeding(seeding) is None
    monkeypatch.setattr(_cstep, "ROUND_SEED", _cstep.checked_seeding(halves_swapped(
        _cstep.ROUND_SEED)))
    policy = make_policy("beta-thompson", 3, 1, seed=9)
    for round, kind in itertools.product((0, 2 ** 32, 77), DRAWS):
        assert draws(policy._rng(round), kind) == draws(core.round_rng(9, round), kind)
    assert getattr(policy, "_gen", None) is None
