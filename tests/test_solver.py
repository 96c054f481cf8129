import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import (
    SolverOptions,
    bifurcation_sweep,
    calibrate_a_max,
    e_inner,
    e_norm,
    extract_solution,
    kappa,
    l2_norm,
    minimize_on_sphere,
    multi_start,
    null_model,
    pde_residual,
    pure_power,
    solve_normalized,
    two_power,
)
import diracnorm.solver as solver_module
from diracnorm.reduction import (
    SmallnessError,
    attach_gradient,
    evaluate_reduced,
    tangent_project,
)
from diracnorm.solver import (
    SolutionRecord,
    _QuasiNewton,
    _family_groups,
    _spectral_scale,
    default_initial_guess,
)
from diracnorm.spectral_core import (
    DiracSpace,
    Grid,
    SpinorField,
    gaussian_spinor,
    l2_inner,
    normalized,
    random_field,
    split,
)


@pytest.fixture(scope="module")
def opts():
    return SolverOptions(max_outer=800)


def test_null_model_descends_to_ground_mode(space16, opts):
    a = 0.1
    m = space16.mass
    v0 = default_initial_guess(space16, null_model(), a)
    rec = minimize_on_sphere(null_model(), a, v0, opts)
    assert rec.converged
    assert np.isclose(rec.j_level, 0.5 * m * a * a, rtol=1e-10)
    assert np.isclose(rec.omega, m, atol=1e-9)
    # minimizer concentrates on the zero-frequency plus modes
    assert np.isclose(rec.e_norm_u**2, m * a * a, rtol=1e-9)
    assert rec.residual_l2 < 1e-9


def test_descent_is_monotone(space16, opts):
    a = 0.1
    model = pure_power(2.5)
    rec = minimize_on_sphere(model, a, default_initial_guess(space16, model, a), opts)
    hist = np.array(rec.history)
    assert np.all(np.diff(hist) <= 1e-18)


def test_retraction_keeps_sphere(space16, opts):
    a = 0.07
    model = pure_power(2.5)
    rec = minimize_on_sphere(model, a, default_initial_guess(space16, model, a), opts)
    assert abs(rec.u_l2 - a) <= 1e-12 * a
    assert abs(l2_norm(rec.v_star) - a) <= 1e-12 * a


def test_pure_power_existence(space16, opts):
    a = 0.1
    m = space16.mass
    model = pure_power(2.5)
    rec = minimize_on_sphere(model, a, default_initial_guess(space16, model, a), opts)
    assert rec.converged
    assert abs(rec.u_l2 - a) <= 1e-9 * a
    assert rec.residual_rel <= 1e-6
    assert rec.omega < m
    assert rec.j_level < 0.5 * m * a * a
    assert rec.in_x_a


def test_extract_solution_bounds(space16, opts):
    a = 0.1
    m = space16.mass
    model = pure_power(2.5)
    rec = minimize_on_sphere(model, a, default_initial_guess(space16, model, a), opts)
    ex = extract_solution(model, rec.v_star, opts)
    assert ex.converged
    assert np.isclose(ex.omega, rec.omega, atol=1e-10)
    assert ex.e_norm_u <= np.sqrt(5 * m + 4) / 2.0 * a
    assert ex.omega_gap_const is not None
    assert m - ex.omega_gap_const * a ** (model.p - 2.0) == pytest.approx(ex.omega)


def test_rejects_mass_above_threshold(space16):
    opts = SolverOptions(a_max=0.25)
    model = pure_power(2.5)
    v0 = default_initial_guess(space16, model, 0.5)
    with pytest.raises(SmallnessError):
        minimize_on_sphere(model, 0.5, v0, opts)


def test_rejects_off_sphere_start(space16, opts):
    model = pure_power(2.5)
    v0 = default_initial_guess(space16, model, 0.1)
    with pytest.raises(ValueError, match="sphere"):
        minimize_on_sphere(model, 0.2, v0, opts)


def test_rejects_a_start_with_a_minus_part(opts):
    """The fiber chart and the sphere gradient assume P+ v = v, so a start
    with a minus part is refused with its measured size."""
    space = DiracSpace(Grid(12, 16.0), 1.0)
    model, a = pure_power(2.5), 0.1
    v0 = normalized(gaussian_spinor(space, model.cone_center, 2.0), a)
    minus = l2_norm(split(v0).minus)
    assert minus == pytest.approx(2.59e-2, rel=1e-3)
    with pytest.raises(ValueError, match=f"plus field: its minus part has l2 norm {minus:.3e}"):
        minimize_on_sphere(model, a, v0, opts)


def test_calibrated_threshold_covers_small_masses(space12):
    a_max = calibrate_a_max(pure_power(2.5), space12, seed=1)
    assert a_max >= 0.2


def test_calibration_samples_concavity_at_small_mass(monkeypatch):
    # at m = 0.1 every random plus draw lies outside in_plus_cone; the
    # calibration must still take its samples rather than pass on none
    import diracnorm.invariants as invariants

    calls = []
    sample = invariants.sample_concavity

    def counting(*args):
        calls.append(1)
        return sample(*args)

    monkeypatch.setattr(invariants, "sample_concavity", counting)
    calibrate_a_max(pure_power(2.5), DiracSpace(Grid(12, 16.0), 0.1), seed=20240)
    assert len(calls) >= 4


def test_sweep_null_model(space16, opts):
    res = bifurcation_sweep(null_model(), [0.12, 0.1, 0.08], opts, space16)
    for rec in res.records:
        assert abs(space16.mass - rec.omega) < 1e-9


def test_sweep_pure_power_branch(space16, opts):
    model = pure_power(2.5)
    res = bifurcation_sweep(model, [0.14, 0.1, 0.07, 0.05], opts, space16)
    assert res.fit_valid
    gaps = [space16.mass - r.omega for r in res.records]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert res.hhalf_decreasing
    assert abs(res.slope - (model.p - 2.0)) <= 0.2


def test_sweep_input_validation(space16, opts):
    with pytest.raises(ValueError):
        bifurcation_sweep(pure_power(2.5), [], opts, space16)
    with pytest.raises(ValueError):
        bifurcation_sweep(pure_power(2.5), [0.1, 0.1], opts, space16)


def test_multi_null_collapses_to_one_family(space16, opts):
    res = multi_start(null_model(), 0.1, 2, opts, space16)
    assert len(res.records) == 1
    assert res.records[0].converged
    assert np.allclose(res.distance_matrix, res.distance_matrix.T)


def test_multi_pure_power_reverifies(space16, opts):
    res = multi_start(pure_power(2.5), 0.1, 2, opts, space16)
    assert len(res.records) >= 1
    for rec in res.records:
        assert rec.converged
        assert rec.residual_rel <= 1e-6
        assert rec.j_level < 0.5 * space16.mass * 0.1**2
    n = res.distance_matrix.shape[0]
    assert res.family_matrix.shape == (n, n)
    assert sum(len(g) for g in res.families) == n


def test_family_grouping_merges_identical_records(space16, opts):
    a = 0.1
    model = pure_power(2.5)
    rec = minimize_on_sphere(model, a, default_initial_guess(space16, model, a), opts)
    groups = _family_groups([rec, rec], space16.mass, a)
    assert len(groups) == 1 and sorted(groups[0]) == [0, 1]


def test_two_power_model_end_to_end(space12, opts):
    from diracnorm import two_power

    model = two_power(2.2, 2.8)
    a = 0.1
    m = space12.mass
    rec = minimize_on_sphere(model, a, default_initial_guess(space12, model, a), opts)
    assert rec.converged
    assert rec.omega < m
    assert rec.j_level < 0.5 * m * a * a
    assert rec.residual_rel <= 1e-6


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(armijo_c=1.5)
    with pytest.raises(ValueError):
        SolverOptions(tol_grad=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(a_max=0.0)


def test_initial_guess_is_admissible(space16):
    model = pure_power(2.5)
    v0 = default_initial_guess(space16, model, 0.1)
    assert np.isclose(l2_norm(v0), 0.1, rtol=1e-12)
    assert e_norm(v0) < np.sqrt(space16.mass + 1.0) * l2_norm(v0)


def test_line_search_opens_at_an_acceptable_step(space12, monkeypatch):
    # each accepted step costs one reduced evaluation; a search that opens
    # above step_init pays a rejected trial (a full inner solve) on most steps
    calls = []
    evaluate = solver_module.evaluate_reduced

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver_module, "evaluate_reduced", counted)
    model = pure_power(2.5)
    a = 0.1
    rec = minimize_on_sphere(model, a, default_initial_guess(space12, model, a), SolverOptions())
    assert rec.converged
    assert len(calls) <= rec.iterations + 3


def test_deflated_starts_converge_within_budget(space12):
    """Each start's plain descent converges well inside the default budget."""
    res = multi_start(pure_power(2.5), 0.1, 2, SolverOptions(), space12)
    assert len(res.all_records) == 4
    for rec in res.all_records:
        assert rec.converged
        assert rec.iterations < 300
        assert rec.stall_reason is None


def test_record_reads_the_reduced_state(space12):
    model = pure_power(2.5)
    a = 0.1
    rec = minimize_on_sphere(model, a, default_initial_guess(space12, model, a), SolverOptions())
    assert rec.converged and rec.failed_criteria == []
    assert abs(rec.omega - kappa(model, rec.u)) <= 1e-12
    assert abs(rec.residual_l2 - l2_norm(pde_residual(model, rec.u))) <= 1e-12 * a


def test_multi_records_carry_their_outer_iterations(space12):
    res = multi_start(pure_power(2.5), 0.1, 2, SolverOptions(), space12)
    assert all(rec.iterations > 0 for rec in res.records)
    # the first start converges, so its record leads the list
    assert res.records[0].iterations >= res.all_records[0].iterations


@pytest.mark.parametrize("max_outer", [1, 2, 3])
def test_an_exhausted_budget_counts_max_outer_steps(space12, max_outer):
    model, a = pure_power(2.5), 0.1
    v0 = default_initial_guess(space12, model, a)
    rec = minimize_on_sphere(model, a, v0, SolverOptions(max_outer=max_outer))
    assert not rec.converged and f"max_outer={max_outer}" in rec.stall_reason
    assert rec.iterations == max_outer
    assert len(rec.history) == rec.iterations + 1


def test_converged_and_stalled_descents_count_their_steps(space12):
    model, a = pure_power(2.5), 0.1
    v0 = default_initial_guess(space12, model, a)
    rec = minimize_on_sphere(model, a, v0, SolverOptions())
    assert rec.converged and rec.stall_reason is None
    assert len(rec.history) == rec.iterations + 1
    # the stalled step is counted but adds no level to the history
    stalled = minimize_on_sphere(model, a, v0, SolverOptions(tol_grad=1e-15))
    assert stalled.iterations > rec.iterations
    assert len(stalled.history) == stalled.iterations


def test_a_stall_inside_the_drivers_is_recorded_not_raised(space12):
    model, opts = pure_power(2.5), SolverOptions(tol_grad=1e-15, max_outer=300)
    sweep = bifurcation_sweep(model, [0.1, 0.08], opts, space12)
    assert all(rec.stall_reason for rec in sweep.records)
    assert not sweep.fit_valid
    multi = multi_start(model, 0.1, 2, opts, space12)
    assert multi.all_records and all(rec.stall_reason for rec in multi.all_records)
    assert multi.records == []
    # 24^3 descends from a 12^3 solve, which stalls too and so gives no omega_coarse
    rec = solve_normalized(model, 0.1, DiracSpace(Grid(24, 12.0), 1.0), opts)
    assert not rec.converged and rec.omega_coarse is None
    assert rec.stall_reason and not rec.stall_reason.startswith("outer budget")


def test_auto_a_max_is_calibrated_once_per_sweep_and_multi(space12, monkeypatch):
    spaces = []

    def counting(model, space, seed=20240):
        spaces.append(space)
        return 0.25

    monkeypatch.setattr(solver_module, "calibrate_a_max", counting)
    opts, model = SolverOptions(a_max=None), pure_power(2.5)
    bifurcation_sweep(model, [0.1, 0.08], opts, space12)
    assert spaces == [space12]
    spaces.clear()
    multi_start(model, 0.1, 2, opts, space12)
    assert spaces == [space12]


@pytest.mark.parametrize("entry", ["solve", "sweep", "multi"])
def test_a_mass_above_a_max_is_refused_before_any_descent(space12, monkeypatch, entry):
    """solve_normalized, bifurcation_sweep and multi_start pass their
    largest mass through the one a_max gate before they descend."""
    calls = []
    minimize = solver_module.minimize_on_sphere

    def counting(*args, **kwargs):
        calls.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(solver_module, "minimize_on_sphere", counting)
    model, opts = pure_power(2.5), SolverOptions(a_max=0.05)
    run = {
        "solve": lambda: solve_normalized(model, 0.1, space12, opts),
        "sweep": lambda: bifurcation_sweep(model, [0.1, 0.04], opts, space12),
        "multi": lambda: multi_start(model, 0.1, 2, opts, space12),
    }[entry]
    with pytest.raises(SmallnessError, match="a=0.1 exceeds the validated threshold a_max=0.05"):
        run()
    assert calls == []


def _cold_points(monkeypatch, opts, space):
    """The sphere points multi_start inner-solves from w0=None."""
    points = []
    evaluate = solver_module.evaluate_reduced

    def recording(model, v, *args, **kwargs):
        if kwargs.get("w0") is None:
            points.append(v)
        return evaluate(model, v, *args, **kwargs)

    monkeypatch.setattr(solver_module, "evaluate_reduced", recording)
    multi_start(pure_power(2.5), 0.1, 2, opts, space)
    return points


def test_multi_inner_solves_no_sphere_point_cold_twice(space12, monkeypatch):
    a = 0.1
    points = _cold_points(monkeypatch, SolverOptions(max_outer=6), space12)
    repeats = [
        (i, j) for j in range(len(points)) for i in range(j)
        if l2_norm(points[i] - points[j]) <= 1e-12 * a
    ]
    assert repeats == []


def test_multi_solves_one_cold_point_per_start(space12, monkeypatch):
    # four starts, one descent each; a converged descent is its own verification
    assert len(_cold_points(monkeypatch, SolverOptions(), space12)) == 4


def test_multi_runs_one_descent_per_start_and_reports_them(space12, monkeypatch):
    calls = []
    minimize = solver_module.minimize_on_sphere

    def counting(*args, **kwargs):
        rec = minimize(*args, **kwargs)
        calls.append(rec)
        return rec

    monkeypatch.setattr(solver_module, "minimize_on_sphere", counting)
    res = multi_start(pure_power(2.5), 0.1, 2, SolverOptions(), space12)
    assert len(calls) == 4
    assert all(a is b for a, b in zip(res.all_records, calls))
    assert res.records and all(any(rec is r for r in res.all_records) for rec in res.records)


def _assert_records_bit_equal(got: SolutionRecord, want: SolutionRecord) -> None:
    for spec in dataclasses.fields(SolutionRecord):
        x, y = getattr(got, spec.name), getattr(want, spec.name)
        if isinstance(x, SpinorField):
            assert np.array_equal(x.hat, y.hat), spec.name
        elif isinstance(x, float):
            assert float.hex(x) == float.hex(y), spec.name
        elif spec.name == "history":
            assert [float.hex(h) for h in x] == [float.hex(h) for h in y]
        else:
            assert x == y, spec.name


@pytest.mark.parametrize("far", [False, True], ids=["plain", "far"])
def test_warm_start_rejection_leaves_every_line_search_decision(space12, monkeypatch, far):
    """A descent whose failing trials are rejected from their warm-start bound
    takes the same steps, bit for bit, as one that inner-solves every trial."""
    model, a = pure_power(2.5), 0.1
    opts = SolverOptions(max_outer=60)
    v0 = default_initial_guess(space12, model, a)
    if far:
        # a random plus field, far from the minimizer
        v0 = random_field(space12, np.random.default_rng(5), bandwidth=1.0, part="plus",
                          target_l2=a)
    evaluate = solver_module.evaluate_reduced
    rejected = []

    def bounded(*args, **kwargs):
        state = evaluate(*args, **kwargs)
        rejected.append(state is None)
        return state

    def unbounded(*args, reject_above=None, **kwargs):
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver_module, "evaluate_reduced", bounded)
    got = solver_module.minimize_on_sphere(model, a, v0, opts)
    monkeypatch.setattr(solver_module, "evaluate_reduced", unbounded)
    want = solver_module.minimize_on_sphere(model, a, v0, opts)
    assert any(rejected)
    _assert_records_bit_equal(got, want)


def _tight_records(monkeypatch, run):
    """The (state, record) pairs _build_record sees while run() executes."""
    seen = []
    build = solver_module._build_record

    def spying(model, state, *args, **kwargs):
        rec = build(model, state, *args, **kwargs)
        seen.append((state, rec))
        return rec

    monkeypatch.setattr(solver_module, "_build_record", spying)
    run()
    return seen


@pytest.mark.parametrize("case", ["converged", "max_outer=1", "max_outer=2", "max_outer=3",
                                  "multi"])
def test_records_read_only_tightly_solved_states(space12, monkeypatch, case):
    """Loosely solved line-search trials never end a descent: every record is
    built from a state solved to tol_inner and matches a fresh tight solve."""
    model, a = pure_power(2.5), 0.1
    opts = SolverOptions()
    if case.startswith("max_outer"):
        opts = SolverOptions(max_outer=int(case.split("=")[1]))
    v0 = default_initial_guess(space12, model, a)
    if case == "multi":
        seen = _tight_records(
            monkeypatch, lambda: multi_start(model, a, 2, opts, space12))
    else:
        seen = _tight_records(monkeypatch, lambda: minimize_on_sphere(model, a, v0, opts))
    assert seen
    for state, rec in seen:
        assert state.inner_residual <= opts.tol_inner * a
        fresh = evaluate_reduced(model, rec.v_star, tol=opts.tol_inner * a)
        assert abs(rec.omega - fresh.kappa_val) <= 1e-9
        assert abs(rec.j_level - fresh.j_val) <= 1e-9
        assert rec.history[-1] == rec.j_level


@pytest.mark.parametrize(
    "model, a",
    [(pure_power(2.5), 0.1), (pure_power(2.5), 0.24), (two_power(2.2, 2.8), 0.1)],
    ids=["pure_power-0.1", "pure_power-0.24", "two_power-0.1"],
)
def test_the_forcing_term_keeps_the_answer(space12, monkeypatch, model, a):
    """Trials solved to the forcing tolerance reach the same solution, in the
    same outer steps, as trials all solved to tol_inner, with less inner work."""
    opts = SolverOptions()
    v0 = default_initial_guess(space12, model, a)
    evaluate = solver_module.evaluate_reduced
    forcing_default = solver_module._INNER_FORCING

    def run(forcing):
        tols, iters = [], []

        def spying(*args, tol=None, **kwargs):
            tols.append(tol)
            state = evaluate(*args, tol=tol, **kwargs)
            if state is not None:
                iters.append(state.inner_iterations)
            return state

        monkeypatch.setattr(solver_module, "_INNER_FORCING", forcing)
        monkeypatch.setattr(solver_module, "evaluate_reduced", spying)
        return minimize_on_sphere(model, a, v0, opts), tols, sum(iters)

    tight, tight_tols, tight_iters = run(0.0)
    loose, loose_tols, loose_iters = run(forcing_default)
    assert tight.converged and loose.converged
    assert loose.iterations == tight.iterations
    assert abs(loose.omega - tight.omega) <= 1e-9
    assert all(t == opts.tol_inner * a for t in tight_tols)
    assert all(t >= opts.tol_inner * a for t in loose_tols)
    assert any(t > opts.tol_inner * a for t in loose_tols)
    assert loose_iters < tight_iters


def test_a_trial_passing_only_on_its_lower_end_is_finished(space12, monkeypatch):
    """With a vanishing concavity margin no loose trial's upper end of J
    passes the Armijo test, so every accepted step is a finished solve."""
    model, a = pure_power(2.5), 0.1
    opts = SolverOptions()
    accepted = []
    attach = solver_module.attach_gradient

    def spying(state):
        accepted.append(state.inner_residual)
        return attach(state)

    monkeypatch.setattr(solver_module, "_j_upper", lambda j, r: np.inf if r > 0 else j)
    monkeypatch.setattr(solver_module, "attach_gradient", spying)
    rec = minimize_on_sphere(model, a, default_initial_guess(space12, model, a), opts)
    assert rec.converged and accepted
    assert all(r <= opts.tol_inner * a for r in accepted)


SPACE12 = DiracSpace(Grid(12, 12.0), 1.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pairs=st.integers(0, 10),
    noise=st.floats(1e-3, 0.5),
)
def test_quasi_newton_directions_descend(seed, n_pairs, noise):
    """The two-loop model is e-symmetric positive definite and the tangent
    projection is e-self-adjoint, so the direction descent returns has a
    positive slope against the tangent gradient, whatever pairs it holds."""
    rng = np.random.default_rng(seed)
    a = 0.1
    v = random_field(SPACE12, rng, bandwidth=1.0, part="plus", target_l2=a)
    state = evaluate_reduced(pure_power(2.5), v)
    qn = _QuasiNewton(SPACE12)
    for _ in range(n_pairs):
        raw = random_field(SPACE12, rng, bandwidth=1.0, part="plus", target_l2=0.01 * a)
        s = tangent_project(v, raw, state.riesz_v)
        y = s + random_field(SPACE12, rng, bandwidth=1.0, part="plus",
                             target_l2=noise * l2_norm(s))
        qn.push(s, y)
    grad = state.grad_tangent
    direction, _ = qn.descent(state, e_norm(grad))
    assert e_inner(direction, grad) > 0


def _reference_two_loop(qn, state, grad):
    """The two-loop recursion on new fields at every step, then the tangent projection."""
    q = grad
    alphas = []
    for s, y, rho in reversed(qn.pairs):
        alpha = rho * e_inner(s, q)
        q = q - alpha * y
        alphas.append(alpha)
    q = SpinorField.from_hat(SPACE12, q.hat * _spectral_scale(SPACE12, state.kappa_val))
    for (s, y, rho), alpha in zip(qn.pairs, reversed(alphas)):
        beta = rho * e_inner(y, q)
        q = q + (alpha - beta) * s
    mu = l2_inner(state.v, q) / l2_inner(state.v, state.riesz_v)
    return q - mu * state.riesz_v


@pytest.mark.parametrize("pushes", [0, 1, 12])
def test_in_place_two_loop_matches_the_reference_and_keeps_its_inputs(pushes):
    """descent works on one copy of grad: grad, the sphere point and every kept
    pair are left bit for bit, the direction is the out-of-place recursion's,
    and its slope is positive; 12 pushes evict the two oldest pairs."""
    rng = np.random.default_rng(27 + pushes)
    a = 0.1
    v = random_field(SPACE12, rng, bandwidth=1.0, part="plus", target_l2=a)
    state = evaluate_reduced(pure_power(2.5), v)
    qn = _QuasiNewton(SPACE12)
    for _ in range(pushes):
        raw = random_field(SPACE12, rng, bandwidth=1.0, part="plus", target_l2=0.01 * a)
        s = tangent_project(v, raw, state.riesz_v)
        y = s + random_field(SPACE12, rng, bandwidth=1.0, part="plus",
                             target_l2=0.1 * l2_norm(s))
        qn.push(s, y)
    assert len(qn.pairs) == min(pushes, 10)
    grad = state.grad_tangent
    before = [f.hat.tobytes() for f in (grad, state.v)]
    before += [f.hat.tobytes() for s, y, _ in qn.pairs for f in (s, y)]

    direction, _ = qn.descent(state, e_norm(grad))

    after = [f.hat.tobytes() for f in (grad, state.v)]
    after += [f.hat.tobytes() for s, y, _ in qn.pairs for f in (s, y)]
    assert after == before
    want = _reference_two_loop(qn, state, grad)
    assert np.max(np.abs(direction.hat - want.hat)) <= 1e-12 * np.max(np.abs(want.hat))
    assert e_inner(direction, grad) > 0


def _spied_evaluations(monkeypatch, run):
    """(forcing, state) of every evaluate_reduced call the solver makes while run() executes."""
    seen = []
    evaluate = solver_module.evaluate_reduced

    def spying(*args, **kwargs):
        state = evaluate(*args, **kwargs)
        seen.append((kwargs.get("forcing"), state))
        return state

    monkeypatch.setattr(solver_module, "evaluate_reduced", spying)
    return run(), seen


def test_the_first_evaluation_stops_at_its_forcing_tolerance(space12, monkeypatch):
    """A descent's first evaluation is solved only as tightly as the sphere
    gradient it finds needs, and carries that gradient bit for bit as
    attach_gradient forms it from the same state."""
    model, a = pure_power(2.5), 0.1
    opts = SolverOptions()
    v0 = default_initial_guess(space12, model, a)
    rec, seen = _spied_evaluations(monkeypatch, lambda: minimize_on_sphere(model, a, v0, opts))
    assert rec.converged
    forcing, first = seen[0]
    assert forcing == (solver_module._INNER_FORCING, opts.tol_grad * a)
    gnorm = e_norm(first.grad_tangent)
    assert (first.inner_residual <= solver_module._INNER_FORCING * gnorm
            or first.inner_residual <= opts.tol_inner * a)
    assert first.inner_residual > opts.tol_inner * a  # the forcing term took effect
    again = attach_gradient(dataclasses.replace(first, grad_tangent=None, riesz_v=None))
    assert again.grad_tangent.hat.tobytes() == first.grad_tangent.hat.tobytes()
    assert again.riesz_v.hat.tobytes() == first.riesz_v.hat.tobytes()


def test_a_descent_from_a_converged_point_solves_it_once_tightly(space12, monkeypatch):
    """Started at a converged sphere point, as a warm restart is, a
    descent's first evaluation is already tight (its gradient is near the end)
    and ends the descent without a re-solve."""
    model, a = pure_power(2.5), 0.1
    opts = SolverOptions()
    found = minimize_on_sphere(model, a, default_initial_guess(space12, model, a), opts)
    assert found.converged
    rec, seen = _spied_evaluations(
        monkeypatch, lambda: minimize_on_sphere(model, a, found.v_star, opts))
    assert rec.converged and rec.iterations == 0
    assert len(seen) == 1
    assert seen[0][1].inner_residual <= opts.tol_inner * a
