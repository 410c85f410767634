"""The result bits, pinned: the suite fixture's four policy hashes, the numpy
round's suite cells, and every policy id's run on three envs.

The twin tests elsewhere compare the two rounds with each other, so a change
that moves the bits of both rounds alike passes them; these tests fail it.
The pinned values are in pinned.json, with the numpy version and the BLAS
build they were computed on: bits depend on both.  Where numpy or its BLAS
differs from the pinned build, the pinned comparisons skip, saying so, and
the two rounds are still compared with each other.  A change that moves a
pinned value edits pinned.json and says which value moved and why.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from banditlab.env import two_class_bumps
from banditlab.policies import POLICIES, make_policy
from banditlab.runner import build_env, execute_cells, run_policy
from conftest import (PASS_IDS, PASS_STEPS, SUITE_SPEC, _suite_cells, compiled_step,
                      news_log, reward_digest)

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())
POLICY_T = 300
# Each env's maker, for the every-id runs: a suite-shaped synthetic env, a
# classification env and a replay log, which needs about ten rows a round.
ENVS = {"synthetic": lambda: build_env(SUITE_SPEC),
        "two_class_bumps": lambda: two_class_bumps(3, POLICY_T),
        "news": lambda: news_log(12 * POLICY_T)}


def this_build() -> dict:
    """The numpy version and BLAS build (name, version) of this interpreter."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # a numpy without show_config's dicts
        blas = {}
    return {"numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")}}


def skip_unless_pinned_build():
    here, pinned = this_build(), {k: PINNED[k] for k in ("numpy", "blas")}
    if here != pinned:
        pytest.skip(f"the bits are pinned on {pinned}, not on this {here}; "
                    "the rounds are still compared with each other")


def test_the_suite_fixture_gives_the_pinned_hashes(synthetic_suite):
    skip_unless_pinned_build()
    assert synthetic_suite.digests == PINNED["suite"]


def test_the_numpy_round_gives_the_suite_fixtures_cells(synthetic_suite):
    # One seed per suite setting, under numpy's round: each cell's run has
    # the bits of the fixture's run of it, whichever round that took.
    cells = [c for c in _suite_cells() if c.seed == 0]
    assert len(cells) == 21
    with compiled_step(blas=None):
        pairs = execute_cells(SUITE_SPEC, cells, jobs=1)
    assert {c: reward_digest([r]) for c, r in pairs} == {
        c: synthetic_suite.cell_digests[c] for c in cells}


@pytest.fixture(scope="module")
def policy_digests():
    """{(env, round id): {policy id: reward_digest}} of every id's default
    run, seed 3 and T = POLICY_T, under each round."""
    out = {}
    for env_id, make in ENVS.items():
        env = make()
        for blas, round_id in zip(PASS_STEPS, PASS_IDS):
            with compiled_step(blas=blas):
                out[env_id, round_id] = {pid: reward_digest([run_policy(
                    env, make_policy(pid, env.n_arms, env.dim, seed=3), POLICY_T, 3)[0]])
                    for pid in POLICIES}
    return out


@pytest.mark.parametrize("env_id", sorted(ENVS))
def test_every_policy_id_gives_the_same_bits_under_both_rounds(policy_digests, env_id):
    runs = [policy_digests[env_id, round_id] for round_id in PASS_IDS]
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("env_id", sorted(ENVS))
@pytest.mark.parametrize("round_id", PASS_IDS)
def test_every_policy_id_gives_the_pinned_bits(policy_digests, env_id, round_id):
    skip_unless_pinned_build()
    assert policy_digests[env_id, round_id] == PINNED["policies"][env_id]
