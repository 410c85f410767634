"""The drawing kinds in the compiled run: eps-greedy, beta-thompson and random
reseed their kept generator in C and draw through numpy's own distributions
(``_cstep.draw_arm``), with the bits and state of the per-round loop."""
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from banditlab import _cstep
from banditlab.core import Policy
from banditlab.env import two_class_bumps
from banditlab.policies import make_policy
from banditlab.runner import build_env, run_policy
from conftest import CAN_BUILD, SUITE_SPEC, held_bytes, news_log

needs_draws = pytest.mark.skipif(_cstep.BLAS is None or _cstep.DRAWS is None,
                                 reason="the compiled draws are not built or declined")
CASES = [("eps-greedy", {"eps": 0.0}), ("eps-greedy", {"eps": 0.05}), ("eps-greedy", {"eps": 1.0}),
         ("beta-thompson", {}), ("beta-thompson", {"prior_a": 0.3, "prior_b": 0.7}),
         ("random", {})]
DRAWING = ("eps-greedy", "beta-thompson", "random")
NEWS_LOG = news_log(5000)


@pytest.mark.skipif(not (CAN_BUILD and Path(np.__file__).with_name("random").joinpath(
    "lib", "libnpyrandom.a").exists()), reason="no cffi, no cc or no libnpyrandom.a")
def test_compiled_draws_are_active():
    # Every test below skips where the draw check declined: one that
    # declined without a word where it could pass fails here.
    assert _cstep.DRAWS is not None


def skewed(env):
    """env with each reward r as 2.5 r - 0.75 and every seventh as -0.0:
    rewards below 0, above 1 and a signed zero for beta-thompson's clip."""
    def arrays(episode, T, n):
        contexts, rewards, oracle = episode.arrays(T, n)
        rewards = rewards * 2.5 - 0.75
        rewards.flat[::7] = -0.0
        return contexts, rewards, oracle
    return SimpleNamespace(n_arms=env.n_arms, dim=env.dim, episode=lambda seed, T: SimpleNamespace(
        arrays=lambda T, n, e=env.episode(seed, T): arrays(e, T, n)))


ENVS = {"synthetic": lambda: build_env(SUITE_SPEC),
        "classification": lambda: two_class_bumps(0, 400),
        "skewed": lambda: skewed(two_class_bumps(0, 400)),
        "replay": lambda: NEWS_LOG}


def result_bits(result):
    return [result.matched_steps] + [a.tobytes() for a in (
        result.cumulative_reward, result.mean_reward)]


def state(policy):
    """Everything the policy holds (the last select's scores aside), and its
    kept generator's state."""
    return [(p, v) for p, v in held_bytes(policy) if not p.endswith("._selected")] + [
        policy._gen.bit_generator.state]


@pytest.fixture
def selects(monkeypatch):
    """The Python selects of each run, counted as a new entry is appended."""
    select, counts = Policy.select, []

    def counted(self, x, round):
        counts[-1] += 1
        return select(self, x, round)

    monkeypatch.setattr(Policy, "select", counted)
    return counts


@needs_draws
@pytest.mark.parametrize("kind", sorted(ENVS))
@pytest.mark.parametrize("pid, params", CASES)
def test_compiled_draws_equal_the_per_round_loop(kind, pid, params, selects):
    # 300 rounds in C, against a twin run through the per-round loop
    # (trace=True): the rewards, the stats or Beta counts and the kept
    # generator's state are byte-equal, and the compiled run makes no select.
    env, runs = ENVS[kind](), []
    for trace in (False, True):
        selects.append(0)
        policy = make_policy(pid, env.n_arms, env.dim, seed=3, **params)
        result, _ = run_policy(env, policy, 300, 3, trace=trace)
        runs.append((result_bits(result), state(policy)))
    assert selects == [0, 300]
    assert runs[0] == runs[1] and runs[0][0][0] == 300


def bad_stream(where, value):
    """The suite's seed-3 rounds with value from round 250 on (contexts: at
    round 250 alone), as an episode of arrays."""
    contexts, rewards, oracle = (a.copy() for a in build_env(SUITE_SPEC).episode(3, 300).arrays(
        300, 5))
    if where == "contexts":
        contexts[250] = value
    else:
        rewards[250:] = value
    return SimpleNamespace(episode=lambda seed, T: SimpleNamespace(
        arrays=lambda T, n: (contexts, rewards, oracle)))


@needs_draws
@pytest.mark.parametrize("pid, where, value, message", [
    ("eps-greedy", "contexts", np.nan, "context is non-finite"),
    ("beta-thompson", "contexts", np.inf, "context is non-finite"),
    ("random", "contexts", 1e160, "squared norm overflows"),
    ("eps-greedy", "rewards", 1e308, "overflows arm"),
    ("random", "rewards", np.nan, "reward must be finite")])
def test_a_bad_round_raises_the_loops_error_at_the_same_round(pid, where, value, message,
                                                              selects):
    # A context C cannot certify, a reward that is not finite or an
    # eps-greedy sum that overflows goes to Python at its round, whose select
    # or update raises as the per-round loop does, leaving the same state.
    env, states = bad_stream(where, value), []
    for trace in (False, True):
        selects.append(0)
        policy = make_policy(pid, 5, 10, seed=3, eps=0.3) if pid == "eps-greedy" else \
            make_policy(pid, 5, 10, seed=3)
        with pytest.raises(ValueError, match=message):
            run_policy(env, policy, 300, 3, trace=trace)
        states.append(state(policy))
    assert states[0] == states[1]
    assert selects[0] == 1 and selects[1] > 250
    if where == "contexts":
        assert selects[1] == 251


@needs_draws
def test_the_draw_check_declines_other_bits_and_the_kinds_then_run_per_round(monkeypatch,
                                                                            selects):
    # A draw from the next round, another arm, or no libnpyrandom (draw_arm's
    # -1) fails the check; the three ids then take the per-round loop, with
    # the bits of their compiled runs.
    draw_arm = _cstep.STEP.lib.draw_arm
    assert _cstep.checked_draws(draw_arm) is draw_arm is _cstep.DRAWS
    for broken in (lambda p, t: draw_arm(p, t + 1), lambda p, t: draw_arm(p, t) ^ 1,
                   lambda p, t: -1):
        assert _cstep.checked_draws(broken) is None
    env = build_env(SUITE_SPEC)
    want = [result_bits(run_policy(env, make_policy(pid, 5, 10, seed=3, **params), 300, 3)[0])
            for pid, params in CASES]
    monkeypatch.setattr(_cstep, "DRAWS", _cstep.checked_draws(lambda p, t: draw_arm(p, t + 1)))
    selects.append(0)
    for (pid, params), bits in zip(CASES, want):
        policy = make_policy(pid, 5, 10, seed=3, **params)
        assert not policy._runs_in_c()
        assert result_bits(run_policy(env, policy, 300, 3)[0]) == bits
    assert selects == [300 * len(CASES)]


@pytest.mark.skipif(not CAN_BUILD, reason="no cffi or no cc")
def test_a_build_without_libnpyrandom_keeps_every_other_step(tmp_path, monkeypatch):
    # The library directory is empty, so the link against libnpyrandom fails
    # and the build goes on without it: STEP loads, its round, seeding and
    # lnucb-ta's compiled run work, and only the drawing kinds' check
    # declines, so they take the per-round loop with the same bits.
    (tmp_path / "lib").mkdir()
    module = _cstep.load(tmp_path / "cache", tmp_path / "lib")
    assert module is not None and module.lib.draw_arm(module.ffi.new("round_t *"), 0) == -1
    env = build_env(SUITE_SPEC)
    ids = ("lnucb-ta",) + DRAWING
    want = [result_bits(run_policy(env, make_policy(pid, 5, 10, seed=3), 300, 3)[0])
            for pid in ids]
    monkeypatch.setattr(_cstep, "STEP", module)
    monkeypatch.setattr(_cstep, "BLAS", _cstep.with_blas(module))
    monkeypatch.setattr(_cstep, "ROUND_SEED", _cstep.checked_seeding(module.lib.round_seed))
    monkeypatch.setattr(_cstep, "DRAWS", _cstep.checked_draws(module.lib.draw_arm))
    assert _cstep.BLAS is not None and _cstep.ROUND_SEED is not None and _cstep.DRAWS is None
    for pid, bits in zip(ids, want):
        policy = make_policy(pid, 5, 10, seed=3)
        assert policy._runs_in_c() == (pid == "lnucb-ta")
        assert result_bits(run_policy(env, policy, 300, 3)[0]) == bits


def test_importing_banditlab_leaves_numpy_random_unloaded():
    # The load checks draw through numpy.random, so they run at first use.
    src = str(Path(_cstep.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import banditlab, banditlab.cli; "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout == "False\n"
