"""The incremental platoon-state kernel against the full-recompute reference.

Every solver decision, round count, sweep history and objective trace must
match the code that re-evaluated the whole profile for each candidate, and
the equilibrium check and enumeration must return the same answers.  A
second property runs the kernel at parameter scales far from the defaults,
where its per-edge delta arithmetic rounds differently from a full
recompute.  A third scales every amount of money by a power of two, which
must change no decision.  The last two hold the kernel against exact
rational arithmetic: its compared values lie within half the instance's
tolerance of the exact ones, and every sweep move gains exactly.
"""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from platoonmatch import game, solvers
from platoonmatch import (
    Instance,
    ModelParams,
    RoadNetwork,
    best_response,
    brd_solve,
    brute_force_nash,
    coop_solve,
    feasible_actions,
    is_nash,
    potential,
    vehicle_utility,
)
from _reference import (
    all_actions,
    custom_params,
    exact_values,
    lone_saving_params,
    random_instance,
    random_path_instance,
    random_profile,
    ref_brute_force_nash,
    ref_candidate_values,
    ref_is_nash,
    ref_pick,
    ref_sweep_solve,
)
from test_golden import NASH_TOLS, stable_at
from test_solvers import _penalty_instance, near_tie_penalties


@st.composite
def instances(draw, max_vehicles=6, max_halfwidths=(1000.0,)):
    """Random trees and vehicles under the default, the custom or the
    lone-saving model.

    Spreads of preferred times up to 8000 s against windows of at most
    +-1000 s leave most vehicles with some times outside their window.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = draw(st.sampled_from([ModelParams, custom_params, lone_saving_params]))()
    alpha_hi = draw(st.sampled_from([500.0, 2000.0, 8000.0]))
    max_halfwidth = draw(st.sampled_from(max_halfwidths))
    return random_instance(
        rng, max_nodes=8, max_vehicles=max_vehicles, alpha_hi=alpha_hi, params=params,
        max_halfwidth=max_halfwidth,
    ), rng


def _trace(report):
    return report.final, report.rounds, report.history, report.objective_trace


@settings(max_examples=150, deadline=None)
@given(instances())
def test_solvers_match_full_recompute(data):
    inst, rng = data
    ne = brd_solve(inst)
    assert _trace(ne) == ref_sweep_solve(inst, "self")
    assert _trace(coop_solve(inst)) == ref_sweep_solve(inst, "cooperative", ne.final)
    start = random_profile(inst, rng)
    assert _trace(coop_solve(inst, start=start)) == ref_sweep_solve(
        inst, "cooperative", start
    )


@settings(max_examples=150, deadline=None)
@given(instances())
def test_best_response_and_is_nash_match_full_recompute(data):
    inst, rng = data
    profiles = [brd_solve(inst).final] + [random_profile(inst, rng) for _ in range(4)]
    for s in profiles:
        assert is_nash(inst, s) == ref_is_nash(inst, s)
        for tol in NASH_TOLS:
            assert stable_at(inst, s, tol) == ref_is_nash(inst, s, tol)
        for idx in range(inst.n_vehicles):
            for objective in ("self", "cooperative"):
                want = ref_pick(
                    feasible_actions(inst, idx + 1),
                    ref_candidate_values(inst, s, idx, objective),
                    s[idx],
                    inst._tol,
                )
                assert best_response(inst, s, idx + 1, objective) == want


@settings(max_examples=120, deadline=None)
@given(instances(max_vehicles=12, max_halfwidths=(1000.0, 300.0, 60.0)))
def test_brute_force_nash_matches_full_recompute(data):
    # Up to 12 vehicles; narrow windows leave many of them a single action.
    inst, _ = data
    if np.prod([len(a) for a in all_actions(inst)]) > 3000:
        return
    assert brute_force_nash(inst) == ref_brute_force_nash(inst)


SCALES = st.integers(-3, 9).map(lambda k: 10.0**k)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), SCALES, SCALES, SCALES)
def test_properties_hold_across_parameter_scales(seed, kp_scale, kt_scale, length_scale):
    rng = np.random.default_rng(seed)
    base = random_instance(rng, max_nodes=8, max_vehicles=6)
    net = base.network
    scaled = RoadNetwork([(t, h, d * length_scale) for t, h, d in net.edges], net.root)
    params = ModelParams(k_p=5e-5 * kp_scale, k_t=1.5e-2 * kt_scale)
    inst = Instance(scaled, base.vehicles, params)

    # Exact-potential identity, to rounding relative to the largest potential.
    magnitude = inst.n_vehicles * (
        inst._r[-1] * sum(scaled.edge_lengths) + max(itertools.chain(*inst._pen))
    )
    s = random_profile(inst, rng)
    for idx in range(inst.n_vehicles):
        trial = list(s)
        gaps = []
        for a in feasible_actions(inst, idx + 1):
            trial[idx] = a
            gaps.append(potential(inst, trial) - vehicle_utility(inst, trial, idx + 1))
        assert max(gaps) - min(gaps) <= 1e-12 * magnitude

    ne = brd_solve(inst)
    assert is_nash(inst, ne.final)
    coop = coop_solve(inst, start=ne.final)
    assert coop.objective_trace[-1] >= coop.objective_trace[0]


def _scaled(params, scale):
    """``params`` with every saving rate and penalty multiplied by ``scale``."""
    return ModelParams(
        k_p=params.k_p * scale,
        k_t=params.k_t * scale,
        saving=None if params.saving is None else lambda n: params.saving(n) * scale,
        penalty=None if params.penalty is None else lambda c, p: params.penalty(c, p) * scale,
    )


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(-40, 40))
def test_a_power_of_two_money_unit_changes_no_decision(data, s):
    # Scaling every amount by 2**s is exact, and so is the tolerance it scales.
    inst, rng = data
    scaled = Instance(inst.network, inst.vehicles, _scaled(inst.params, 2.0**s))
    assert scaled._tol == inst._tol * 2.0**s
    for want, got in ((brd_solve(inst), brd_solve(scaled)),
                      (coop_solve(inst), coop_solve(scaled))):
        assert (got.final, got.rounds, got.history) == (want.final, want.rounds, want.history)
    for p in [random_profile(inst, rng) for _ in range(4)]:
        assert is_nash(scaled, p) == is_nash(inst, p)
    if np.prod([len(a) for a in all_actions(inst)]) <= 3000:
        assert brute_force_nash(scaled) == brute_force_nash(inst)


#: the models of ``exact_instances``: default, custom, lone-saving and no penalty
EXACT_MODELS = [ModelParams, custom_params, lone_saving_params, lambda: ModelParams(k_t=0.0)]


@st.composite
def exact_instances(draw):
    """An instance where the tolerance's bound is put to the test, with a
    generator for its profiles: a random tree or a path of up to 60 edges
    under one of ``EXACT_MODELS``, or penalty rows of ``near_tie_penalties``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tree", "path", "near-tie"]))
    if kind == "near-tie":
        return _penalty_instance(draw(near_tie_penalties())), rng
    params = draw(st.sampled_from(EXACT_MODELS))()
    if kind == "path":
        return random_path_instance(rng, params), rng
    return random_instance(rng, max_nodes=8, max_vehicles=6, params=params), rng


@settings(max_examples=100, deadline=None)
@given(exact_instances())
def test_scan_values_lie_within_half_the_tolerance_of_exact(data):
    inst, rng = data
    half = Fraction(inst._tol) / 2
    for s in (inst.preferred_profile, random_profile(inst, rng)):
        state = game._PlatoonState(inst, s)
        for idx in range(inst.n_vehicles):
            for objective in ("self", "cooperative"):
                vcur, vbest, kbest = state.scan(idx, objective)
                exact = exact_values(inst, s, idx, objective)
                assert abs(Fraction(vcur) - exact[state.ks[idx]]) <= half
                if kbest is not None:
                    assert abs(Fraction(vbest) - exact[kbest]) <= half


@settings(max_examples=100, deadline=None)
@given(exact_instances())
def test_every_sweep_move_gains_exactly(data):
    # A positive exact gain raises the exact potential (or common utility)
    # built from the float tables, and a finite profile space holds no endless
    # rise: the sweeps end.
    inst, rng = data
    gains = []
    decide = solvers._decide

    def checked(state, idx, objective, tol):
        k = decide(state, idx, objective, tol)
        if k is not None:
            exact = exact_values(inst, state.times, idx, objective)
            gains.append(exact[k] - exact[state.ks[idx]])
        return k

    with mock.patch.object(solvers, "_decide", checked):
        coop_solve(inst)
        coop_solve(inst, start=random_profile(inst, rng))
    assert all(gain > 0 for gain in gains)
