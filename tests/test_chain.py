"""End-to-end tests for the chained search loop and its cost accounting."""

import enum
import hashlib
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwalk import (
    _stream, amplify, chain, extraction, johnson, law, levels, regimes, statevector, stats,
)
from chainwalk.errors import FlaggedInstanceError, ParameterError, SimulationError
from chainwalk.oracle import (
    CollisionTable,
    FunctionTable,
    Params,
    enumerate_multicollisions,
    generate_function,
    restrict,
)
from chainwalk.extraction import FamilyIndex, VertexFamily
from chainwalk.levels import Levels, repair
from chainwalk.stats import IntervalPlan
from chainwalk.amplify import FlipStats
from chainwalk.chain import (
    ChainConfig,
    ChainStatus,
    CostLedger,
    _append_json,
    extraction_step,
    optimal_ell,
    predict_cost,
    run,
    walk_step,
)
from chainwalk.statevector import State
from reference import as_state, histogram
from test_acceptance import CHAIN_INSTANCES


def test_config_validation():
    params = Params(n=4, m=7, k=1)
    cfg = ChainConfig(params=params, ell=3, seed=0)
    assert cfg.vertex_size == 8
    assert cfg.target == 2
    assert cfg.outer_bound == math.ceil(2 * 2.0 ** 3.5 / 8)
    with pytest.raises(ParameterError):
        ChainConfig(params=params, ell=0, seed=0)
    with pytest.raises(ParameterError):
        ChainConfig(params=params, ell=8, seed=0)   # above (2k + m)/3 + 4
    with pytest.raises(ParameterError):
        ChainConfig(params=params, ell=3, seed=0, max_outer_iterations=0)


_P = Params(n=4, m=5, k=0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: stats.window(0.5, 4, 0), id="window-M0"),
    pytest.param(lambda: stats.window(0.5, 4, -4), id="window-M-4"),
    pytest.param(lambda: stats.interval_hit_probability(
        4, 0, 0.5, "upper", 10, np.random.default_rng(0)), id="interval_hit_probability-M0"),
    pytest.param(lambda: johnson.closed_form_gap(4, 0), id="closed_form_gap-R0"),
    pytest.param(lambda: johnson.closed_form_gap(4, 4), id="closed_form_gap-R=N"),
    pytest.param(lambda: johnson.closed_form_gap(4, 5), id="closed_form_gap-R>N"),
    pytest.param(lambda: run(ChainConfig(_P, 2.5, 0)), id="run-ell-float"),
    pytest.param(lambda: run(ChainConfig(_P, 2, 1.5)), id="run-seed-float"),
    pytest.param(lambda: run(ChainConfig(_P, 2, 0, 2.5)), id="run-max_outer-float"),
    pytest.param(lambda: run(ChainConfig(_P, True, 0)), id="run-ell-bool"),
    pytest.param(lambda: run(ChainConfig(_P, 2, "0")), id="run-seed-str"),
    pytest.param(lambda: generate_function(_P, "a"), id="generate_function-seed-str"),
    pytest.param(lambda: generate_function(_P, 1.5), id="generate_function-seed-float"),
    pytest.param(lambda: generate_function(Params(32, 64, 0), 0), id="generate_function-m-64"),
    pytest.param(lambda: predict_cost(_P, math.nan, "new"), id="predict_cost-nan"),
    pytest.param(lambda: predict_cost(_P, math.inf, "new"), id="predict_cost-inf"),
    pytest.param(lambda: predict_cost(_P, -math.inf, "new"), id="predict_cost--inf"),
    pytest.param(lambda: predict_cost(_P, 2000.0, "new"), id="predict_cost-overflow"),
    pytest.param(lambda: predict_cost(_P, "a", "new"), id="predict_cost-str"),
    pytest.param(lambda: Params(4.0, 5, 0), id="Params-n-float"),
    pytest.param(lambda: Params(True, 1, 0), id="Params-n-bool"),
    pytest.param(lambda: Params(4, 5, 0.5), id="Params-k-float"),
    pytest.param(lambda: johnson.JohnsonGraph((0, 1, 2), 1.5), id="JohnsonGraph-R-float"),
    pytest.param(lambda: johnson.closed_form_gap(4.5, 2), id="closed_form_gap-N-float"),
    pytest.param(lambda: stats.resolve_threads(1.5), id="resolve_threads-float"),
    pytest.param(lambda: regimes.tradeoff_curve(1.5, 0.1, 2.5), id="tradeoff_curve-steps-float"),
    pytest.param(lambda: stats.sample_collision_counts(2, 64, 2.5, np.random.default_rng(0)),
                 id="sample_collision_counts-samples-float"),
    pytest.param(lambda: stats.calibrate_constant(2, 64, 2.5, np.random.default_rng(0)),
                 id="calibrate_constant-samples-float"),
    pytest.param(lambda: stats.window(math.nan, 4, 16), id="window-c-nan"),
    pytest.param(lambda: stats.window(-1.0, 4, 16), id="window-c-negative"),
    pytest.param(lambda: stats.window(1e308, 4, 16), id="window-E-overflow"),
    pytest.param(lambda: johnson.JohnsonGraph((0, 0, 1), 1), id="JohnsonGraph-repeated-point"),
    pytest.param(lambda: regimes.evaluate(True, 0), id="evaluate-m_hat-bool"),
    pytest.param(lambda: predict_cost(_P, True, "new"), id="predict_cost-ell-bool"),
    pytest.param(lambda: stats.interval_hit_probability(
        4, 64, math.nan, "upper", 10, np.random.default_rng(0)),
        id="interval_hit_probability-c-nan"),
    pytest.param(lambda: stats.window(0.5, 2.5, 16), id="window-R-float"),
    pytest.param(lambda: stats.window("a", 4, 16), id="window-c-str"),
    pytest.param(lambda: stats.interval_hit_probability(
        4, 64, "a", "upper", 10, np.random.default_rng(0)),
        id="interval_hit_probability-c-str"),
    pytest.param(lambda: regimes.region_grid("a"), id="region_grid-step-str"),
    pytest.param(lambda: regimes.evaluate("a", 0), id="evaluate-m_hat-str"),
    pytest.param(lambda: regimes.evaluate(1.5, "a"), id="evaluate-k_hat-str"),
    pytest.param(lambda: regimes.tradeoff_curve("a", 0.1, 3), id="tradeoff_curve-m_hat-str"),
    pytest.param(lambda: statevector.subset_key([-1, 2]), id="subset_key-negative"),
    pytest.param(lambda: statevector.subset_key([1 << 32]), id="subset_key-2**32"),
    pytest.param(lambda: amplify.split(math.nan), id="split-nan"),
    pytest.param(lambda: Levels(
        law.LawIndex(restrict(generate_function(_P, 0), CollisionTable()), 4), [1.5]),
        id="Levels-count-without-vertex"),
    pytest.param(lambda: amplify.flip_plan("a", amplify.Want.GOOD), id="flip_plan-str"),
    pytest.param(lambda: amplify.flip_plan(math.nan, amplify.Want.GOOD), id="flip_plan-nan"),
    pytest.param(lambda: amplify.flip_plan(1.5, amplify.Want.GOOD), id="flip_plan-1.5"),
])
def test_probe_calls_raise_parameter_error(call):
    """The error-contract probe calls: each raised a bare ZeroDivisionError,
    ValueError, TypeError or OverflowError, or returned a nonsense value (a
    negative gap, NaN or infinite cost terms, a run bounded by 2.5
    iterations, a graph or Params of non-integer size, a gap at N = 4.5, one
    worker for 1.5 threads, a window for R = 2.5), or, for a subset key's
    point outside [0, 2**32), raised ValidationError, or, for a NaN share,
    read it as 0 (split) or as an empty good side (the flip plan), and each
    now raises ParameterError."""
    with pytest.raises(ParameterError):
        call()


def test_numpy_ints_pass_the_integer_checks():
    """A numpy int is an integer to ChainConfig and generate_function."""
    config = ChainConfig(_P, np.int64(2), np.int64(3), np.int64(4))
    assert config.vertex_size == 4 and config.outer_bound == 4
    assert generate_function(_P, np.int64(3)).images == generate_function(_P, 3).images


def test_predict_cost_terms_and_validity():
    params = Params(n=20, m=30, k=4)
    pred = predict_cost(params, 10.0, "new")
    assert pred.setup_term == pytest.approx(2.0**10)
    assert pred.walk_term == pytest.approx(2.0 ** (4 + 15 - 5))
    assert pred.total == pred.setup_term + pred.walk_term
    # the prior regime shares the form and is no separate case
    for regime in ("prior", "else"):
        with pytest.raises(ParameterError):
            predict_cost(params, 10.0, regime)
    with pytest.raises(ParameterError):
        predict_cost(params, 0.0, "new")


def test_predict_cost_balances_at_optimum():
    for n, m, k in [(20, 30, 4), (16, 20, 6), (12, 18, 0), (25, 40, 5)]:
        params = Params(n=n, m=m, k=k)
        star = optimal_ell(params)
        assert star == pytest.approx((2 * k + m) / 3.0)
        pred = predict_cost(params, star, "new")
        assert pred.setup_term == pytest.approx(pred.walk_term, rel=1e-9)
        # the balance point minimizes the dominant term
        peak = max(pred.setup_term, pred.walk_term)
        for off in (star - 1.0, star + 1.0):
            moved = predict_cost(params, off, "new")
            assert max(moved.setup_term, moved.walk_term) > peak


def test_cost_ledger_charging():
    ledger = CostLedger()
    stats = FlipStats()
    stats.iterations_used = 3
    ledger.charge_flip(stats, 0.25)
    assert ledger.update_calls == 6   # ceil(1/sqrt(0.25)) = 2 per iteration
    assert ledger.check_calls == 3
    ledger.charge_flip(stats, 1.0)
    assert ledger.update_calls == 9
    assert ledger.check_calls == 6
    d = vars(ledger)
    assert set(d) == {
        "setup_calls", "update_calls", "check_calls",
        "oracle_queries", "extraction_events", "predicted_total",
    }


def test_run_single_tuple():
    result = run(ChainConfig(params=Params(n=4, m=5, k=0), ell=3, seed=2))
    assert result.status is ChainStatus.COMPLETED
    assert result.regime == "sparse"
    assert result.outer_iterations == 1
    assert len(result.collision_table) == 1
    fn = generate_function(Params(n=4, m=5, k=0), 2)
    for image, preimages in result.collision_table.items():
        assert len(preimages) >= 2
        for x in preimages:
            assert fn.value(x) == image
    led = result.ledger
    assert led.setup_calls == 1
    assert led.extraction_events == 1
    # setup charged 8 queries, verification 2
    assert led.oracle_queries == 10
    assert led.predicted_total == pytest.approx(8 + 2.0**2.5 / math.sqrt(8))


def test_run_collects_every_collision():
    params = Params(n=4, m=4, k=1)
    fn = generate_function(params, 4)
    truth = enumerate_multicollisions(fn)
    result = run(ChainConfig(params=params, ell=3, seed=4, max_outer_iterations=64))
    assert result.status is ChainStatus.COMPLETED
    assert sorted(result.collision_table.images()) == sorted(img for img, _ in truth)
    for image, preimages in result.collision_table.items():
        assert len(preimages) >= 2
        for x in preimages:
            assert fn.value(x) == image


def test_numpy_integers_run_as_python_ints():
    """Each integer field given as np.int64 is stored as an int, and the
    run's report is the Python-int run's, byte for byte."""
    wide = np.int64
    cfg = ChainConfig(params=Params(n=wide(4), m=wide(5), k=wide(1)), ell=wide(2),
                      seed=wide(3), max_outer_iterations=wide(16))
    plain = ChainConfig(params=Params(n=4, m=5, k=1), ell=2, seed=3,
                        max_outer_iterations=16)
    assert run(cfg).report_json() == run(plain).report_json()
    fields = (cfg.params.n, cfg.params.m, cfg.params.k, cfg.ell, cfg.seed,
              cfg.max_outer_iterations)
    assert all(type(value) is int for value in fields)


def test_run_deterministic():
    cfg = ChainConfig(params=Params(n=4, m=5, k=1), ell=3, seed=7,
                      max_outer_iterations=16)
    first = run(cfg).report_json()
    second = run(cfg).report_json()
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {
        "params", "ell", "seed", "status", "regime", "tuples",
        "ledger", "outer_iterations", "per_step_trace",
    }
    assert doc["params"] == {"n": 4, "m": 5, "k": 1}


def test_run_sparse_fallback():
    result = run(ChainConfig(params=Params(n=4, m=5, k=1), ell=3, seed=2,
                             max_outer_iterations=64))
    assert result.status is ChainStatus.SPARSE_FALLBACK
    assert len(result.collision_table) == 1


def test_run_capacity_stop():
    result = run(ChainConfig(params=Params(n=4, m=4, k=2), ell=3, seed=1,
                             max_outer_iterations=64))
    assert result.status is ChainStatus.CAPACITY
    assert len(result.collision_table) >= 1


def test_run_rejects_oversized_vertex():
    """R above the domain: the law index refuses it (law.family_total)."""
    with pytest.raises(ParameterError):
        run(ChainConfig(params=Params(n=2, m=4, k=0), ell=3, seed=0))
    with pytest.raises(ParameterError):
        run(ChainConfig(Params(1, 1, 0), ell=2, seed=0))


def test_run_refuses_a_negative_seed():
    """The function table is drawn first, and refuses the seed with the
    package's own error, not the stream's ValueError."""
    with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
        run(ChainConfig(Params(4, 5, 0), 1, -1))


def _pair_rich_instance():
    # every image has exactly two preimages: the densest desk-scale function
    values = [i // 2 for i in range(16)]
    fn = FunctionTable(Params(n=4, m=7, k=0), values)
    restriction = restrict(fn, CollisionTable())
    return fn, restriction, FamilyIndex(restriction, 8)


def test_extraction_step_dense_scenario():
    fn, restriction, index = _pair_rich_instance()
    assert histogram(index) == {0: 256, 1: 3584, 2: 6720, 3: 2240, 4: 70}
    plan = IntervalPlan.build(8, 128, 4.0)
    assert (plan.expected_now, plan.width) == (2, 1)
    family = VertexFamily(restriction=restriction, big_r=8, lo=2, hi=3)
    ledger = CostLedger()
    tuples, state, new_family, new_plan = extraction_step(
        Levels.uniform(index, 2, 3), family, plan, np.random.default_rng(8),
        ledger=ledger, fn=fn, trace=[],
    )
    # one planned extraction plus one re-centering extraction
    assert tuples == [(0, (0, 1)), (7, (14, 15))]
    assert (new_family.lo, new_family.hi, new_family.big_r) == (0, 1, 4)
    assert new_plan.expected_now == 1
    assert ledger.extraction_events == 2
    assert ledger.oracle_queries == 4
    assert ledger.oracle_queries == fn.query_count
    # the residual is uniform over its family class
    fresh = FamilyIndex(new_family.restriction, 4)
    assert sorted(as_state(state).support()) == sorted(fresh.class_state(0, 1).keys())


def test_extraction_step_requires_dense_expectation():
    fn, restriction, index = _pair_rich_instance()
    thin = IntervalPlan.build(4, 128, 4.0)
    assert thin.expected_now < 2
    family = VertexFamily(restriction=restriction, big_r=8, lo=2, hi=3)
    with pytest.raises(FlaggedInstanceError):
        extraction_step(Levels.uniform(index, 2, 3), family, thin,
                        np.random.default_rng(0), ledger=CostLedger(), fn=fn, trace=[])


def test_walk_step_advances_interval():
    fn, restriction, index = _pair_rich_instance()
    plan = IntervalPlan.build(8, 128, 4.0)
    family = VertexFamily(restriction=restriction, big_r=8, lo=1, hi=2)
    ledger = CostLedger()
    state, new_family, stats = walk_step(
        Levels.uniform(index, 1, 2), family, plan, np.random.default_rng(9),
        ledger=ledger,
    )
    assert (new_family.lo, new_family.hi) == (3, 3)
    assert stats.iterations_used >= 1
    # delta = 16/(8*8) = 1/4, so each iteration costs two update calls
    assert ledger.update_calls == 2 * stats.iterations_used
    assert ledger.check_calls == stats.iterations_used
    fresh = sorted(index.class_state(3, 3).keys())
    assert sorted(as_state(state).support()) == fresh


def test_walk_step_validation():
    fn, restriction, index = _pair_rich_instance()
    plan = IntervalPlan.build(8, 128, 4.0)
    bad_family = VertexFamily(restriction=restriction, big_r=8, lo=0, hi=0)
    with pytest.raises(ParameterError):
        walk_step(Levels.uniform(index), bad_family, plan,
                  np.random.default_rng(0), ledger=CostLedger())


def test_walk_step_flags_empty_target_cell():
    # two collision pairs only: no vertex reaches three tuples
    values = [0, 0, 1, 1] + list(range(2, 14))
    fn = FunctionTable(Params(n=4, m=7, k=0), values)
    restriction = restrict(fn, CollisionTable())
    index = FamilyIndex(restriction, 8)
    assert len(index.sizes) == 3
    plan = IntervalPlan.build(8, 128, 4.0)
    family = VertexFamily(restriction=restriction, big_r=8, lo=1, hi=2)
    with pytest.raises(FlaggedInstanceError):
        walk_step(Levels.uniform(index, 1, 2), family, plan,
                  np.random.default_rng(0), ledger=CostLedger())


def _carved_pairs():
    # twelve live points in six preimage pairs once images 6 and 7 are carved out
    fn = FunctionTable(Params(n=4, m=7, k=0), [i // 2 for i in range(16)])
    table = CollisionTable().insert(fn, 6, (12, 13)).insert(fn, 7, (14, 15))
    restriction = restrict(fn, table)
    return restriction, FamilyIndex(restriction, 6)


# (lo, hi, target_hi) for levels.repair; (E, T) for walk_step.  expected:
# (iterations, restarts, attempts), interval, (update, check) ledger calls or
# None, next rng.random() in hex
CLASS_MOVES = [
    (("correct", 1, 1, 2), 0, ((8, 2, 5), (1, 2), None, "0x1.165603cf43b8fp-1")),
    (("correct", 1, 1, 2), 1, ((7, 0, 6), (1, 2), None, "0x1.51a530eb452a6p-2")),
    (("correct", 1, 1, 2), 2, ((4, 0, 3), (1, 2), None, "0x1.80d24727f15fcp-3")),
    (("correct", 1, 1, 2), 3, ((7, 0, 6), (1, 2), None, "0x1.b8f68d41ae326p-2")),
    (("correct", 1, 1, 2), 4, ((36, 1, 35), (1, 2), None, "0x1.d5d53a0241e66p-1")),
    (("walk", 1, 1), 0, ((1, 0, 1), (2, 2), (2, 1), "0x1.4fa7b529d9bd0p-5")),
    (("walk", 1, 1), 1, ((6, 0, 2), (2, 2), (12, 6), "0x1.3f50be80ff35cp-2")),
    (("walk", 1, 1), 2, ((1, 0, 1), (2, 2), (2, 1), "0x1.a0e2323ed3df6p-1")),
    (("walk", 1, 1), 3, ((1, 0, 1), (2, 2), (2, 1), "0x1.9a40a58e5cdbdp-1")),
    (("walk", 1, 1), 4, ((1, 0, 1), (2, 2), (2, 1), "0x1.f3d63709e1811p-1")),
    (("walk", 1, 2), 0, ((1, 0, 1), (2, 3), (2, 1), "0x1.4fa7b529d9bd0p-5")),
    (("walk", 1, 2), 1, ((1, 0, 1), (2, 3), (2, 1), "0x1.273d27b04760cp-3")),
    (("walk", 1, 2), 2, ((1, 0, 1), (2, 3), (2, 1), "0x1.a0e2323ed3df6p-1")),
    (("walk", 1, 2), 3, ((1, 0, 1), (2, 3), (2, 1), "0x1.9a40a58e5cdbdp-1")),
    (("walk", 1, 2), 4, ((1, 0, 1), (2, 3), (2, 1), "0x1.f3d63709e1811p-1")),
    (("walk", 2, 1), 0, ((11, 7, 10), (3, 3), (22, 11), "0x1.13220e71bcf20p-5")),
    (("walk", 2, 1), 1, ((3, 2, 3), (3, 3), (6, 3), "0x1.3f50be80ff35cp-2")),
    (("walk", 2, 1), 2, ((22, 8, 17), (3, 3), (44, 22), "0x1.e2363374e5282p-2")),
    (("walk", 2, 1), 3, ((19, 8, 15), (3, 3), (38, 19), "0x1.31901717c6896p-2")),
    (("walk", 2, 1), 4, ((7, 3, 6), (3, 3), (14, 7), "0x1.167f7cbe70768p-1")),
    (("walk", 2, 2), 0, ((3, 2, 3), (3, 4), (6, 3), "0x1.a064f4f059bcap-1")),
    (("walk", 2, 2), 1, ((10, 9, 10), (3, 4), (20, 10), "0x1.13878535acff3p-1")),
    (("walk", 2, 2), 2, ((8, 7, 8), (3, 4), (16, 8), "0x1.509b0f6467179p-1")),
    (("walk", 2, 2), 3, ((21, 20, 21), (3, 4), (42, 21), "0x1.31901717c6896p-2")),
    (("walk", 2, 2), 4, ((4, 3, 4), (3, 4), (8, 4), "0x1.8185b2fd21ecep-2")),
]


@pytest.mark.parametrize("case, seed, expected", CLASS_MOVES)
def test_class_moves_pinned(case, seed, expected):
    restriction, index = _carved_pairs()
    assert histogram(index) == {0: 64, 1: 480, 2: 360, 3: 20}
    rng = np.random.default_rng(seed)
    if case[0] == "correct":
        _, lo, hi, target_hi = case
        family = VertexFamily(restriction, 6, lo, hi)
        state, stats = repair(Levels.uniform(index, lo, hi), family, target_hi, rng)
        interval, ledger_calls = (lo, target_hi), None
    else:
        _, e_now, width = case
        plan = IntervalPlan(c=0.5, width=width, expected_now=e_now)
        lo = max(0, e_now - width)
        ledger = CostLedger()
        state, family, stats = walk_step(
            Levels.uniform(index, lo, e_now), VertexFamily(restriction, 6, lo, e_now),
            plan, rng, ledger=ledger,
        )
        interval = (family.lo, family.hi)
        ledger_calls = (ledger.update_calls, ledger.check_calls)
    assert set(as_state(state).support()) == set(index.class_state(*interval).keys())
    assert (
        (stats.iterations_used, stats.restarts, stats.attempts),
        interval, ledger_calls, rng.random().hex(),
    ) == expected


@pytest.mark.parametrize("bound", [3, 2])
def test_both_repair_paths_give_up_by_one_rule(monkeypatch, bound):
    """The carved pairs' [1, 1] repaired to [1, 2] at seed 0 takes 3 hops on
    either path, CLASS_MOVES' first row.  Both paths check the class before
    each hop and after the last, so under a bound of 3 hops both return that
    row's state and work, and under a bound of 2 both give up with one text."""
    restriction, index = _carved_pairs()
    family = VertexFamily(restriction, 6, 1, 1)
    monkeypatch.setattr(extraction, "MAX_TRANSITIONS", bound)
    monkeypatch.setattr(levels, "MAX_TRANSITIONS", bound)
    paths = [
        lambda rng: extraction.correct_interval(index.class_state(1, 1), family, 2, index, rng),
        lambda rng: repair(Levels.uniform(index, 1, 1), family, 2, rng),
    ]
    for path in paths:
        rng = np.random.default_rng(0)
        if bound == 2:
            with pytest.raises(SimulationError) as failed:
                path(rng)
            assert str(failed.value) == "interval correction did not converge in 2 transitions"
            continue
        state, stats = path(rng)
        if isinstance(state, Levels):
            state = as_state(state)
        assert set(state.support()) == set(index.class_state(1, 2).keys())
        assert (stats.iterations_used, stats.restarts, stats.attempts) == (8, 2, 5)
        assert rng.random().hex() == "0x1.165603cf43b8fp-1"


_DENSE_FLAG = "The instance violates a statistical premise; it is skipped, not patched: "


def test_flagged_message_is_written_once():
    """The message prepends the premise sentence to the reason once, also
    after a pickle round trip, which rebuilds the error from its arguments."""
    flagged = FlaggedInstanceError("synthetic.")
    assert str(flagged) == _DENSE_FLAG + "synthetic."
    assert str(pickle.loads(pickle.dumps(flagged))) == str(flagged)


@pytest.mark.parametrize(
    "shape, max_outer, expected",
    [
        # R = N: the single vertex starts dense and completes in one step
        ((6, 10, 0, 6, 0), 64,
         ("completed", "dense", 1, [(686, (22, 45)), (747, (15, 29))], (0, 0, 68, 2))),
        # dense start, flagged at the projection onto [E, E+T]
        ((6, 10, 0, 6, 1), None, _DENSE_FLAG + "no vertices hold [2, 4] tuples."),
        # dense start, flagged by walk_step
        ((6, 10, 2, 6, 0), None, _DENSE_FLAG + "target cell [3, 4] is empty."),
        # dense start, flagged by interval correction inside an extraction
        ((6, 10, 0, 6, 6), None,
         _DENSE_FLAG + "classes below 1 and above 3 must be nonempty (sizes 0, 0)."),
        # no vertex holds a tuple at setup
        ((4, 8, 0, 4, 0), None, ("sparse_fallback", "sparse", 1, [], (0, 0, 16, 0))),
        # the first extraction empties the vertex
        ((4, 7, 1, 1, 1), None,
         ("sparse_fallback", "sparse", 1, [(121, (3, 7))], (12, 6, 4, 1))),
        # the default loop bound stops the run
        ((4, 5, 1, 4, 0), None,
         ("max_iterations", "sparse", 1, [(20, (1, 10))], (0, 0, 18, 1))),
    ],
)
def test_run_stops(shape, max_outer, expected):
    n, m, k, ell, seed = shape
    config = ChainConfig(params=Params(n=n, m=m, k=k), ell=ell, seed=seed,
                         max_outer_iterations=max_outer)
    if isinstance(expected, str):
        with pytest.raises(FlaggedInstanceError) as info:
            run(config)
        assert str(info.value) == expected
        return
    status, regime, outer, tuples, counts = expected
    result = run(config)
    assert result.status.value == status
    assert result.regime == regime
    assert result.outer_iterations == outer
    assert list(result.collision_table.items()) == tuples
    led = result.ledger
    assert (led.update_calls, led.check_calls, led.oracle_queries,
            led.extraction_events) == counts


@pytest.mark.parametrize(
    "shape, digest",
    [
        # the chain-wide benchmark shape on the 8,128-vertex n=7 family
        ((7, 8, 0, 1, 0), "33b90b14e0fc5ae8f892f10e16c6f5366056b760670d38ac71b9bacd00d4ec7d"),
        ((7, 8, 0, 1, 1), "5c5111682d2ce0c72c7801ac9a3ea823a84b4d8ff25289af825659685af5ba09"),
        ((7, 8, 0, 1, 2), "e04aa571467fe844aa46accf8a1179fdc6854bbdb8a7a4516d865afa1b48b858"),
        ((7, 8, 0, 1, 3), "6d919d7138dbb2d1f295fb85686db620898367428c66190ab97f9cb0f7c83317"),
        # a criterion-7 instance (n=4, ell=3)
        ((4, 4, 1, 3, 4), "f1806bc2633e3f67cd1861cd34ab2af16ba853121b1bfec24cea64cd9b395906"),
        # a dense start that completes
        ((6, 10, 0, 6, 0), "0e55deb956eb71d06d4ae477e3f4bb08d157dfd97f99e0e82d607299936f04a5"),
    ],
)
def test_report_pinned(shape, digest):
    """The whole report, per_step_trace support sizes included, is pinned."""
    n, m, k, ell, seed = shape
    result = run(ChainConfig(params=Params(n=n, m=m, k=k), ell=ell, seed=seed,
                             max_outer_iterations=64))
    assert hashlib.sha256(result.report_json().encode()).hexdigest() == digest


# (7, 10, 2, 6) with the family cap lifted: project, extract, walk, extract
_DENSE_WALKS = [
    (2, "76ba0bdd75aa00026799d57a8983dcb7cc1ba9fefd22954f04a6c05134b6154c"),
    (3, "f56d99bd0653715f51a1e45f02a8e269fc88992412b4b4e96e97c40d344d115d"),
    (4, "369c3a8ffc08b7628b04ad5a13a044b8143c6fc0a4e8409e4cd2edb52a094224"),
    (5, "f7d2b0830d63be4071e40f9eff70811a616d1d9af844fd445836b1c9620e580d"),
]


@pytest.mark.parametrize("seed, digest", _DENSE_WALKS)
def test_dense_run_walks_after_an_extraction(monkeypatch, seed, digest):
    """The (6, 10, k, 6) starts flag every walk_step that run() makes, so
    the sweep reaches no walk after a dense extraction.  With the family cap
    lifted, (7, 10, 2, 6) at seeds 2 to 5 completes dense after one
    walk_step, which writes a walk entry past iteration 0.  Each report is
    pinned."""
    monkeypatch.setattr(law, "_MAX_FAMILY_VERTICES", 10**200)
    walks = []

    def counted(*args, **kwargs):
        walks.append(args)
        return walk_step(*args, **kwargs)

    monkeypatch.setattr(chain, "walk_step", counted)
    result = run(ChainConfig(Params(7, 10, 2), 6, seed))
    assert (result.status, result.regime, len(walks)) == (ChainStatus.COMPLETED, "dense", 1)
    assert any(entry.get("phase") == "walk" and entry["iteration"] >= 1
               for entry in result.per_step_trace)
    assert hashlib.sha256(result.report_json().encode()).hexdigest() == digest


# (7, 10, 4, 6) with the family cap lifted: E drops below 2 after three walks
_MIXED_RUNS = [
    (8, "ceb65f46d3accf33b0557059dbd4f2a248ae5ca037fd60890c2ecc8aba74cb24"),
    (12, "54c73ab9434c8b9f31b5e2987157be4d799f29a86f4974129789197fc76f56aa"),
    (24, "a7b03b5931cc94d8177c1daf4c5129f83014bf378b50fbbe117d4bbd40b6ceb2"),
    (30, "c20a9d4f81c21c962bad17d769ed2320b8eb8ec8083918a231082ded7f842838"),
]


@pytest.mark.parametrize("seed, digest", _MIXED_RUNS)
def test_dense_run_switches_to_the_count_walk(monkeypatch, seed, digest):
    """With the family cap lifted, (7, 10, 4, 6) at these seeds walks three
    times with walk_step until E drops below 2 at its fourth extraction.
    The run then measures its count, records one regime-switch entry and
    goes on with the count walk, as a "mixed" run.  No sweep line reaches
    the switch.  Each report is pinned."""
    monkeypatch.setattr(law, "_MAX_FAMILY_VERTICES", 10**200)
    result = run(ChainConfig(Params(7, 10, 4), 6, seed))
    phases = [entry.get("phase") for entry in result.per_step_trace]
    assert result.regime == "mixed" and phases.count("regime-switch") == 1
    assert phases[:phases.index("regime-switch")].count("walk") == 3
    assert hashlib.sha256(result.report_json().encode()).hexdigest() == digest


def test_criterion_7_hot_path(monkeypatch):
    """The 20 criterion-7 runs enumerate no vertex: they build no FamilyIndex,
    which enumerates and spells each vertex's byte key, and spell no subset
    key, their indices being law.LawIndex; their reports, the pinned
    (4, 4, 1, 3, 4) one among them, hash as before."""
    keys, enumerated = [], []
    spell = statevector.subset_key
    index_init = FamilyIndex.__init__

    def counted(points):
        keys.append(points)
        return spell(points)

    def built(self, *args, **kwargs):
        enumerated.append(args)
        index_init(self, *args, **kwargs)

    monkeypatch.setattr(statevector, "subset_key", counted)
    monkeypatch.setattr(FamilyIndex, "__init__", built)
    digest = hashlib.sha256()
    for m, seed, k in CHAIN_INSTANCES:
        result = run(ChainConfig(params=Params(n=4, m=m, k=k), ell=3, seed=seed,
                                 max_outer_iterations=64))
        digest.update(result.report_json().encode())
    assert keys == [] and enumerated == []
    assert digest.hexdigest() == (
        "07246bafe60db7f07f8654011ca39968ea0cb61e34dcbaab2eb5d3cbad450034"
    )


def test_criterion_7_runs_read_the_stream_only_through_choose(monkeypatch):
    """Each draw of the 20 criterion-7 runs, their rotating flips' landings
    among them, is one _stream.choose: a Stream that counts its random()
    calls and a spy on the chooser count the same, nonzero number."""
    reads, chosen = [], []

    class CountedStream(_stream.Stream):
        def random(self):
            reads.append(None)
            return super().random()

    def spy(weights, rng):
        chosen.append(weights)
        return _stream.choose(weights, rng)

    monkeypatch.setattr(chain, "Stream", CountedStream)
    for module in (levels, statevector):
        monkeypatch.setattr(module, "choose", spy)
    for m, seed, k in CHAIN_INSTANCES:
        run(ChainConfig(params=Params(n=4, m=m, k=k), ell=3, seed=seed,
                        max_outer_iterations=64))
    assert len(reads) == len(chosen) > 0


def test_criterion_7_runs_on_the_enumerated_index(monkeypatch):
    """With extraction.FamilyIndex, which enumerates every vertex, as the
    runs' index in place of law.LawIndex, the 20 criterion-7 runs report
    byte for byte as on the law: their reports hash to
    test_criterion_7_hot_path's digest."""
    monkeypatch.setattr(chain, "LawIndex", FamilyIndex)
    enumerated = []
    index_init = FamilyIndex.__init__

    def built(self, *args, **kwargs):
        enumerated.append(args)
        index_init(self, *args, **kwargs)

    monkeypatch.setattr(FamilyIndex, "__init__", built)
    digest = hashlib.sha256()
    for m, seed, k in CHAIN_INSTANCES:
        result = run(ChainConfig(params=Params(n=4, m=m, k=k), ell=3, seed=seed,
                                 max_outer_iterations=64))
        digest.update(result.report_json().encode())
    assert enumerated
    assert digest.hexdigest() == (
        "07246bafe60db7f07f8654011ca39968ea0cb61e34dcbaab2eb5d3cbad450034"
    )


def test_run_states_stay_real(monkeypatch):
    """Two criterion-7 runs and a chain-wide run hold their states as count
    classes: they build no vector over the vertices (no State is built and
    no index builds a class state), and every count of a class and its
    class size are Python ints."""
    vectors, types = [], set()
    levels_init = Levels.__init__

    def recorded(self, index, counts):
        counts = list(counts)
        types.update((type(c), type(index.sizes[c])) for c in counts)
        levels_init(self, index, counts)

    monkeypatch.setattr(State, "__init__", lambda *args, **kwargs: vectors.append("State"))
    monkeypatch.setattr(FamilyIndex, "class_state", lambda *args: vectors.append("class"))
    monkeypatch.setattr(Levels, "__init__", recorded)
    shapes = [(4, m, k, 3, seed) for m, seed, k in (CHAIN_INSTANCES[0], CHAIN_INSTANCES[10])]
    for n, m, k, ell, seed in shapes + [(7, 8, 0, 1, 0)]:
        run(ChainConfig(params=Params(n=n, m=m, k=k), ell=ell, seed=seed,
                        max_outer_iterations=64))
    assert vectors == []
    assert types == {(int, int)}


class _Rank(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


# the exact types a report holds
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]),
    # non-ASCII and control characters among them
    st.text(),
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=40,
)


def _report_text(doc) -> str:
    out = []
    _append_json(doc, "\n", out)
    return "".join(out)


@settings(deadline=None, max_examples=400)
@given(doc=_JSON_DOCS)
def test_report_encoder_matches_json_dumps(doc):
    """report_json's encoder writes what json.dumps(sort_keys=True,
    indent=2) writes: nested and empty containers, keys and strings escaped
    to ASCII, big ints, bools, and json's NaN and Infinity."""
    assert _report_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


class _Text(str):
    pass


class _Table(dict):
    pass


@pytest.mark.parametrize(
    "value", [(1, 2), (), _Rank.LOW, np.float64(0.5), _Text("x"), _Table(a=1), _Table()]
)
def test_report_encoder_refuses_types_a_report_does_not_hold(value):
    """A tuple and subclasses of the leaf and container types, which json
    would write, are refused by exact type, at any depth."""
    for doc in (value, [value], {"a": value}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _report_text(doc)


@pytest.mark.parametrize("doc", [{1: 0}, {1.5: 0}, {True: 0}, {None: 0}, [{"a": {2: []}}]])
def test_report_encoder_refuses_keys_that_are_not_str(doc):
    with pytest.raises(TypeError, match="report keys must be str"):
        _report_text(doc)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1, 2}, b"x", object()])
def test_report_encoder_refuses_what_json_refuses(value):
    for doc in (value, [value], {"a": value}):
        with pytest.raises(TypeError) as ours:
            _report_text(doc)
        with pytest.raises(TypeError) as theirs:
            json.dumps(doc, sort_keys=True, indent=2)
        assert str(ours.value) == str(theirs.value)


def test_run_in_a_fresh_interpreter_imports_no_numpy_random():
    # the run path draws its table and measurement stream without numpy's
    # Generator, so a run alone never imports numpy.random
    m, seed, k = CHAIN_INSTANCES[0]
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "from chainwalk.chain import ChainConfig, run",
        "from chainwalk.oracle import Params",
        f"config = ChainConfig(params=Params(n=4, m={m}, k={k}), ell=3, seed={seed},"
        " max_outer_iterations=64)",
        "sys.stdout.write(run(config).report_json())",
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'",
    ])
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    config = ChainConfig(params=Params(n=4, m=m, k=k), ell=3, seed=seed, max_outer_iterations=64)
    assert fresh.stdout == run(config).report_json()
