import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvcreg import (
    ComponentSpec,
    ConfigError,
    ConstantRegressor,
    ExplicitConcentrations,
    GaussianRegressor,
    LinearRamp,
    SimulationConfig,
    build_gramian,
    compute_weights,
    fit_all,
    generate,
    limit_co_moments,
    load_config_file,
    reference_study_config,
    run_study,
    simulation_config_from_dict,
    true_component_moments,
)
import mvcreg._pool
import mvcreg.moments
from mvcreg.covariance import _gaussian_quartic
import mvcreg.simgen
from mvcreg.simgen import (
    derive_seeds,
    draw,
    draw_stack,
    philox_keys,
    plan_draws,
    study_options_from_dict,
    with_n_obs,
    with_seed,
)


def one_component_config(n=100, error_sd=0.5, seed=0):
    return SimulationConfig(
        n_obs=n,
        components=(
            ComponentSpec(
                regressors=(ConstantRegressor(), GaussianRegressor(mean=0.0, sd=1.0)),
                error_sd=error_sd,
                coefficients=(1.0, 2.0),
            ),
        ),
        concentrations=ExplicitConcentrations(np.ones((n, 1))),
        seed=seed,
    )


class TestConfigValidation:
    def test_reference_config_loads(self):
        config, options = reference_study_config()
        assert config.n_components == 2
        assert config.n_regressors == 2
        assert options.rep_count == 2000

    def test_component_count_mismatch(self):
        raw = {
            "n_obs": 50,
            "n_components": 2,
            "components": [
                {
                    "regressors": [{"kind": "constant"}],
                    "error_sd": 1.0,
                    "coefficients": [1.0],
                }
            ],
        }
        with pytest.raises(ConfigError) as exc_info:
            simulation_config_from_dict(raw)
        assert exc_info.value.field == "components"

    def test_error_sd_must_be_positive(self):
        with pytest.raises(ConfigError) as exc_info:
            one_component_config(error_sd=0.0)
        assert exc_info.value.field == "components[0].error_sd"

    def test_gaussian_sd_path(self):
        with pytest.raises(ConfigError) as exc_info:
            SimulationConfig(
                n_obs=10,
                components=(
                    ComponentSpec(
                        regressors=(GaussianRegressor(mean=0.0, sd=-1.0),),
                        error_sd=1.0,
                        coefficients=(1.0,),
                    ),
                ),
                concentrations=ExplicitConcentrations(np.ones((10, 1))),
            )
        assert exc_info.value.field == "components[0].regressors[0].sd"

    def test_ramp_requires_two_components(self):
        spec = ComponentSpec(regressors=(ConstantRegressor(),), error_sd=1.0, coefficients=(1.0,))
        for n_comp in (1, 3):
            with pytest.raises(ConfigError) as exc_info:
                SimulationConfig(n_obs=10, components=(spec,) * n_comp, concentrations=LinearRamp())
            assert exc_info.value.field == "components"
            assert f"{n_comp} component specs" in exc_info.value.message
            assert "has 2 components" in exc_info.value.message

    def test_unknown_key_rejected(self):
        raw = {"n_obs": 10, "components": [], "n_osb": 10}
        with pytest.raises(ConfigError) as exc_info:
            simulation_config_from_dict(raw)
        assert exc_info.value.field == "n_osb"

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            one_component_config(seed=-1)
        with pytest.raises(ConfigError):
            one_component_config(seed=2**64)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as exc_info:
            load_config_file(path)
        assert "invalid JSON" in str(exc_info.value)

    def test_study_options_validation(self):
        with pytest.raises(ConfigError):
            study_options_from_dict({"rep_count": 1})
        with pytest.raises(ConfigError):
            study_options_from_dict({"n_grid": []})
        opts = study_options_from_dict({"rep_count": 10, "n_grid": [50, 100]})
        assert opts.n_grid == (50, 100)

    @pytest.mark.parametrize("n_obs", [1, 2])
    def test_n_obs_must_exceed_the_regressors(self, n_obs):
        config, _ = reference_study_config()  # d = 2
        with pytest.raises(ConfigError, match="regressors") as exc_info:
            replace(config, n_obs=n_obs)
        assert exc_info.value.field == "n_obs"
        # a study grid entry that small is blamed on the grid, not on n_obs
        with pytest.raises(ConfigError, match="regressors") as exc_info:
            with_n_obs(config, n_obs)
        assert exc_info.value.field == "n_grid"
        assert with_n_obs(config, 3).n_obs == 3

    def test_n_obs_must_cover_the_components(self):
        spec = ComponentSpec(regressors=(ConstantRegressor(),), error_sd=1.0, coefficients=(1.0,))
        with pytest.raises(ConfigError, match="components") as exc_info:
            SimulationConfig(
                n_obs=2,
                components=(spec,) * 3,
                concentrations=ExplicitConcentrations(np.full((2, 3), 1 / 3)),
            )
        assert exc_info.value.field == "n_obs"

    def test_explicit_rows_must_match_n_obs(self):
        config = one_component_config(n=100)
        with pytest.raises(ConfigError):
            with_n_obs(config, 200)


def _base_raw():
    """A valid two-component config document, for the refusal table to edit."""
    return {
        "n_obs": 10,
        "components": [
            {
                "regressors": [{"kind": "constant"}, {"kind": "gaussian", "mean": 1.0, "sd": 1.0}],
                "error_sd": 0.1,
                "coefficients": [1.0, 2.0],
            },
            {
                "regressors": [{"kind": "constant"}, {"kind": "gaussian", "mean": 2.0, "sd": 0.5}],
                "error_sd": 0.2,
                "coefficients": [-1.0, 0.5],
            },
        ],
    }


def _set(path, value):
    """An edit of the base document that sets the item at ``path`` to ``value``."""

    def edit(raw):
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return raw

    return edit


def _drop(path):
    def edit(raw):
        target = raw
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return raw

    return edit


_REG = ("components", 0, "regressors")
_EXPLICIT = [[0.5, 0.5]] * 10

#: config edit -> (field path, message) that simulation_config_from_dict refuses it with
_CONFIG_REFUSALS = {
    "top level not an object": (lambda raw: [raw], "config", "top level must be an object"),
    "n_obs missing": (_drop(("n_obs",)), "n_obs", "is required"),
    "n_obs a string": (_set(("n_obs",), "10"), "n_obs", "must be an integer, got '10'"),
    "n_obs a bool": (_set(("n_obs",), True), "n_obs", "must be an integer, got True"),
    "n_obs zero": (_set(("n_obs",), 0), "n_obs", "must be a positive integer"),
    "components an object": (
        _set(("components",), {}), "components", "must be a non-empty list"
    ),
    "component not an object": (
        _set(("components", 0), 3), "components[0]", "must be an object"
    ),
    "component unknown key": (
        _set(("components", 1, "mean"), 1.0), "components[1]", "unknown keys ['mean']"
    ),
    "regressors not a list": (
        _set(_REG, "constant"), "components[0].regressors", "must be a list"
    ),
    "regressors empty": (
        lambda raw: _set(("components", 0, "coefficients"), [])(_set(_REG, [])(raw)),
        "components[0].regressors",
        "must not be empty",
    ),
    "regressor counts differ": (
        _set(("components", 1, "regressors"), [{"kind": "constant"}]),
        "components[1].regressors",
        "has 1 entries; every component must declare 2 like the first",
    ),
    "coefficients not a list": (
        _set(("components", 0, "coefficients"), 1.0),
        "components[0].coefficients",
        "must be a list",
    ),
    "coefficient count differs": (
        _set(("components", 1, "coefficients"), [1.0]),
        "components[1].coefficients",
        "has 1 entries, expected 2",
    ),
    "coefficient null": (
        _set(("components", 0, "coefficients", 1), None),
        "components[0].coefficients[1]",
        "must be a number, got None",
    ),
    "error_sd missing": (
        _drop(("components", 1, "error_sd")), "components[1].error_sd", "is required"
    ),
    "error_sd a bool": (
        _set(("components", 0, "error_sd"), True),
        "components[0].error_sd",
        "must be a number, got True",
    ),
    "regressor not an object": (
        _set(_REG + (1,), "gaussian"), "components[0].regressors[1]", "must be an object"
    ),
    "constant regressor unknown key": (
        _set(_REG + (0, "mean"), 1.0),
        "components[0].regressors[0]",
        "unknown keys ['mean'] for constant regressor",
    ),
    "gaussian regressor unknown key": (
        _set(_REG + (1, "skew"), 0.0),
        "components[0].regressors[1]",
        "unknown keys ['skew'] for gaussian regressor",
    ),
    "regressor unknown kind": (
        _set(_REG + (1,), {"kind": "uniform"}),
        "components[0].regressors[1].kind",
        "must be 'constant' or 'gaussian', got 'uniform'",
    ),
    "regressor kind missing": (
        _set(_REG + (1,), {"mean": 1.0, "sd": 1.0}),
        "components[0].regressors[1].kind",
        "must be 'constant' or 'gaussian', got None",
    ),
    "gaussian sd missing": (
        _drop(_REG + (1, "sd")), "components[0].regressors[1].sd", "is required"
    ),
    "gaussian mean a string": (
        _set(_REG + (1, "mean"), "1"),
        "components[0].regressors[1].mean",
        "must be a number, got '1'",
    ),
    "concentrations a string": (
        _set(("concentrations",), "ramp"), "concentrations", "must be an object"
    ),
    "linear_ramp unknown key": (
        _set(("concentrations",), {"model": "linear_ramp", "slope": 1.0}),
        "concentrations",
        "unknown keys ['slope'] for linear_ramp",
    ),
    "explicit unknown key": (
        _set(("concentrations",), {"model": "explicit", "values": _EXPLICIT, "scale": 1}),
        "concentrations",
        "unknown keys ['scale'] for explicit model",
    ),
    "unknown model": (
        _set(("concentrations",), {"model": "dirichlet"}),
        "concentrations.model",
        "must be 'linear_ramp' or 'explicit', got 'dirichlet'",
    ),
    "explicit values missing": (
        _set(("concentrations",), {"model": "explicit"}), "concentrations.values", "is required"
    ),
    "explicit values a vector": (
        _set(("concentrations",), {"model": "explicit", "values": [0.5, 0.5]}),
        "concentrations.values",
        "must be a matrix (list of equal-length rows)",
    ),
    "explicit values not numeric": (
        _set(("concentrations",), {"model": "explicit", "values": [["a", "b"]] * 10}),
        "concentrations.values",
        "not a numeric matrix: could not convert string to float: 'a'",
    ),
    "explicit values ragged": (
        _set(("concentrations",), {"model": "explicit", "values": [[0.5, 0.5]] * 9 + [[1.0]]}),
        "concentrations.values",
        "not a numeric matrix: ",  # the rest is numpy's wording
    ),
}

#: study option edit -> (field path, message) that study_options_from_dict refuses it with
_OPTION_REFUSALS = {
    "n_grid not a list": ({"n_grid": 500}, "n_grid", "must be a list of integers"),
    "n_grid float entry": ({"n_grid": [500, 2.5]}, "n_grid[1]", "must be an integer, got 2.5"),
    "n_grid entry too small": ({"n_grid": [500, 1]}, "n_grid", "entries must be integers >= 2"),
    "rep_count a string": ({"rep_count": "10"}, "rep_count", "must be an integer, got '10'"),
    "rel_tol zero": ({"rel_tol": 0}, "rel_tol", "must be positive"),
    "rel_tol negative": ({"rel_tol": -0.1}, "rel_tol", "must be positive"),
    "rel_tol a string": ({"rel_tol": "0.1"}, "rel_tol", "must be a number, got '0.1'"),
    "mean_tol zero": ({"mean_tol": 0.0}, "mean_tol", "must be positive"),
    "mean_tol infinite": (
        {"mean_tol": float("inf")}, "mean_tol", "must be a finite number, got inf"
    ),
}


class TestConfigRefusals:
    @pytest.mark.parametrize("case", list(_CONFIG_REFUSALS))
    def test_config_refusal_names_the_field(self, case):
        edit, field, message = _CONFIG_REFUSALS[case]
        simulation_config_from_dict(_base_raw())  # the base document is valid
        with pytest.raises(ConfigError) as exc_info:
            simulation_config_from_dict(edit(_base_raw()))
        assert exc_info.value.field == field
        if message.endswith(": "):
            assert exc_info.value.message.startswith(message)
        else:
            assert exc_info.value.message == message
        assert str(exc_info.value) == f"{field}: {exc_info.value.message}"

    @pytest.mark.parametrize("case", list(_OPTION_REFUSALS))
    def test_study_option_refusal_names_the_field(self, case):
        raw, field, message = _OPTION_REFUSALS[case]
        with pytest.raises(ConfigError) as exc_info:
            study_options_from_dict(raw)
        assert (exc_info.value.field, exc_info.value.message) == (field, message)

    def test_config_needs_a_component(self):
        with pytest.raises(ConfigError) as exc_info:
            SimulationConfig(n_obs=10, components=())
        assert (exc_info.value.field, exc_info.value.message) == (
            "components", "must list at least one component"
        )

    def test_explicit_rows_must_match_n_obs_when_drawn(self):
        raw = _set(("concentrations",), {"model": "explicit", "values": _EXPLICIT[:3]})(_base_raw())
        config = simulation_config_from_dict(raw)  # the rows are counted when drawn
        with pytest.raises(ConfigError) as exc_info:
            generate(config)
        assert (exc_info.value.field, exc_info.value.message) == (
            "concentrations.values", "has 3 rows but n_obs is 10"
        )

    def test_unreadable_config_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError) as exc_info:
            load_config_file(path)
        assert (exc_info.value.field, exc_info.value.message) == (
            str(path), "cannot read config: No such file or directory"
        )


class TestGenerate:
    def test_deterministic_bytes(self):
        config, _ = reference_study_config()
        a = generate(config)
        b = generate(config)
        assert a.data.y.tobytes() == b.data.y.tobytes()
        assert a.data.x.tobytes() == b.data.x.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_seed_changes_draws(self):
        config, _ = reference_study_config()
        a = generate(config)
        b = generate(with_seed(config, config.seed + 1))
        assert not np.array_equal(a.data.y, b.data.y)

    def test_near_zero_noise_recovers_truth(self):
        config = one_component_config(n=200, error_sd=1e-12, seed=9)
        sim = generate(config)
        fit = fit_all(sim.data, sim.p)
        np.testing.assert_allclose(fit.coefficients[0], [1.0, 2.0], atol=1e-6)

    def test_label_fraction_near_even_split(self):
        # rows whose first concentration sits in [0.49, 0.51] should be
        # labeled component 0 about half the time
        config, _ = reference_study_config()
        sim = generate(with_seed(with_n_obs(config, 10**5), 31))
        band = (sim.p.values[:, 0] >= 0.49) & (sim.p.values[:, 0] <= 0.51)
        frac = np.mean(sim.labels[band] == 0)
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_marginal_means_via_weights(self):
        config, _ = reference_study_config()
        sim = generate(with_seed(with_n_obs(config, 10**5), 47))
        a = compute_weights(sim.p, build_gramian(sim.p))
        est = np.einsum("jm,ji->mi", a, sim.data.x) / sim.data.n_obs
        np.testing.assert_allclose(est, [[1.0, 1.0], [1.0, 2.0]], atol=0.05)

    def test_labels_not_used_by_estimator(self):
        sim = generate(one_component_config(n=50, seed=3))
        assert sim.labels.shape == (50,)
        assert not sim.labels.flags.writeable


def whole_array_draw(plan, seed):
    """The draw as one whole-array formula over fancy-indexed parameters."""
    n = plan.n_obs
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(n)
    z = rng.standard_normal((n, plan.means.shape[1]))
    e = rng.standard_normal(n)
    labels = np.zeros(n, dtype=np.int64)
    for row in np.cumsum(plan.p.values.T[:-1], axis=0):
        labels += row <= u
    x = plan.sds[labels] * z + plan.means[labels]
    y = np.einsum("ji,ji->j", x, plan.coefficients[labels]) + plan.error_sds[labels] * e
    return y, x, labels


class TestDraw:
    N = 2 * mvcreg.moments._CHUNK_ROWS + 3  # two full row blocks and a partial one

    def three_component_config(self, n=N):
        rng = np.random.default_rng(17)
        specs = tuple(
            ComponentSpec(
                regressors=(
                    ConstantRegressor(),
                    GaussianRegressor(mean=float(k), sd=0.5 + k),
                    GaussianRegressor(mean=-1.0, sd=2.0),
                ),
                error_sd=0.1 * (k + 1),
                coefficients=(1.0 - k, 0.5 * k, 2.0),
            )
            for k in range(3)
        )
        values = rng.dirichlet(np.ones(3), size=n)
        return SimulationConfig(
            n_obs=n, components=specs, concentrations=ExplicitConcentrations(values)
        )

    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    def test_blocked_draw_matches_whole_array_formula(self, seed):
        plan = plan_draws(self.three_component_config())
        sim = draw(plan, seed)
        y, x, labels = whole_array_draw(plan, seed)
        assert sim.labels.tobytes() == labels.tobytes()
        assert sim.data.x.tobytes() == x.tobytes()
        assert sim.data.y.tobytes() == y.tobytes()

    def test_arrays_are_handed_over_once(self):
        config, _ = reference_study_config()
        sim = draw(plan_draws(with_n_obs(config, self.N)), 3)
        held = [sim.data.y, sim.data.x, sim.labels, sim.p.values]
        for arr in held:
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous and arr.flags.owndata
        for i, first in enumerate(held):
            for second in held[i + 1 :]:
                assert not np.shares_memory(first, second)

    def test_no_n_sized_float_beside_the_outputs(self):
        # the outputs are the draws themselves, so the traced peak stays under
        # one float per row above them (a copy of y alone would add one)
        config, _ = reference_study_config()
        n = 8 * mvcreg.moments._CHUNK_ROWS + 3
        plan = plan_draws(with_n_obs(config, n))
        draw(plan, 1)  # first-call set-up is not the draw's memory
        tracemalloc.start()
        try:
            sim = draw(plan, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sim.data.y.nbytes + sim.data.x.nbytes + sim.labels.nbytes
        assert peak - held < 8 * n

    @pytest.mark.parametrize("n", [700, N])
    def test_stacked_draws_match_single_draws(self, n):
        # each seed's rows of the stack are the bytes of its own draw
        plan = plan_draws(self.three_component_config(n))
        seeds = derive_seeds(4, n, range(5 if n < self.N else 2)).tolist()
        stacked = draw_stack(plan, philox_keys(seeds), np.random.Generator(np.random.Philox()))
        assert stacked.n_obs == len(seeds) * n
        for k, seed in enumerate(seeds):
            single = draw(plan, seed).data
            rows = slice(k * n, (k + 1) * n)
            assert stacked.x[rows].tobytes() == single.x.tobytes()
            assert stacked.y[rows].tobytes() == single.y.tobytes()

    @staticmethod
    def design_config(d, m, n):
        # d Gaussian regressors per component, Dirichlet concentrations over m
        specs = tuple(
            ComponentSpec(
                regressors=tuple(
                    GaussianRegressor(mean=float(i - k), sd=0.5 + k + 0.25 * i) for i in range(d)
                ),
                error_sd=0.1 * (k + 1),
                coefficients=tuple(1.0 - k + 0.5 * i for i in range(d)),
            )
            for k in range(m)
        )
        values = np.random.default_rng(10 * d + m).dirichlet(np.ones(m), size=n)
        return SimulationConfig(
            n_obs=n, components=specs, concentrations=ExplicitConcentrations(values)
        )

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("d", [1, 6])
    def test_blocked_draw_matches_whole_array_formula_across_shapes(self, d, m):
        plan = plan_draws(self.design_config(d, m, self.N))
        sim = draw(plan, 9)
        y, x, labels = whole_array_draw(plan, 9)
        assert sim.labels.tobytes() == labels.tobytes()
        assert sim.data.x.tobytes() == x.tobytes()
        assert sim.data.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("n", [700, N])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("d", [1, 6])
    def test_stacked_draws_match_single_draws_across_shapes(self, d, m, n):
        plan = plan_draws(self.design_config(d, m, n))
        seeds = derive_seeds(6, n, range(5 if n < self.N else 2)).tolist()
        stacked = draw_stack(plan, philox_keys(seeds), np.random.Generator(np.random.Philox()))
        for k, seed in enumerate(seeds):
            single = draw(plan, seed).data
            rows = slice(k * n, (k + 1) * n)
            assert stacked.x[rows].tobytes() == single.x.tobytes()
            assert stacked.y[rows].tobytes() == single.y.tobytes()

    def test_caller_labels_are_copied(self):
        sim = generate(one_component_config(n=20, seed=1))
        labels = np.zeros(20, dtype=np.int64)
        copied = type(sim)(data=sim.data, p=sim.p, labels=labels)
        assert not np.shares_memory(copied.labels, labels)
        assert not copied.labels.flags.writeable and labels.flags.writeable


def numpy_seed(base_seed, n_obs, replication):
    entropy = (base_seed, n_obs, replication)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


#: seeds of one and two uint32 words, at both ends of each
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestDeriveSeed:
    def test_deterministic(self):
        # a replication's seed depends on neither the call nor its place in it
        seeds = derive_seeds(1, 500, [7, 3, 7]).tolist()
        assert seeds[0] == seeds[2] == derive_seeds(1, 500, [7]).tolist()[0]

    def test_distinct_across_axes(self):
        seeds = {
            seed
            for base in (1, 2)
            for n in (100, 200)
            for seed in derive_seeds(base, n, range(5)).tolist()
        }
        assert len(seeds) == 20

    @pytest.mark.parametrize("base", EDGE_SEEDS + [5])
    @pytest.mark.parametrize("n", [500, 2**31, 2**40])
    def test_seeds_are_numpys(self, base, n):
        # one- and two-word base seeds and sample sizes; replications on both
        # sides of 2**32, and in no particular order
        reps = [0, 1, 7, 2999, 2**32 - 1, 2**32, 2**64 - 1, 3]
        expected = [numpy_seed(base, n, rep) for rep in reps]
        assert derive_seeds(base, n, reps).tolist() == expected
        assert derive_seeds(base, n, range(3000)).tolist() == [
            numpy_seed(base, n, rep) for rep in range(3000)
        ]
        for rep, seed in zip(reps, expected):  # one replication at a time
            assert derive_seeds(base, n, [rep]).tolist() == [seed]

    def test_literal_seeds(self):
        # values of np.random.SeedSequence, recorded before it was replaced
        assert derive_seeds(5, 500, [0]).tolist() == [12990517610721141657]
        assert derive_seeds(0, 5000, [1999]).tolist() == [3036046879883594802]
        assert derive_seeds(2**64 - 1, 2**31, [2**32]).tolist() == [866136408474610219]

    def test_negative_input_is_refused(self):
        with pytest.raises(ValueError):
            derive_seeds(-1, 500, [0])
        with pytest.raises((ValueError, OverflowError)):
            derive_seeds(1, 500, [-1])


class TestPhiloxKeys:
    def test_keys_are_numpys(self):
        # seeds below 2**32 are one word of entropy, the others two
        seeds = EDGE_SEEDS + derive_seeds(5, 500, range(200)).tolist()
        expected = [np.random.Philox(seed).state["state"]["key"].tolist() for seed in seeds]
        assert philox_keys(seeds).tolist() == expected

    def test_literal_key(self):
        assert philox_keys([12990517610721141657]).tolist() == [
            [4286891179561160173, 5809803200064498923]
        ]

    def test_rekeyed_generator_gives_fresh_bytes(self):
        # after stream A, re-keying gives the bytes of a fresh Generator(Philox(B))
        seeds = derive_seeds(1, 500, [0, 1]).tolist()
        a, b = philox_keys(seeds)
        rng = np.random.Generator(np.random.Philox())
        mvcreg.simgen._rekeyed(rng, a)
        rng.random(7)  # leaves a partial buffer behind
        rng.integers(0, 2**32, size=3, dtype=np.uint32)  # and a 32-bit half
        fresh = np.random.Generator(np.random.Philox(seeds[1]))
        assert mvcreg.simgen._rekeyed(rng, b) is rng
        assert rng.random(9).tobytes() == fresh.random(9).tobytes()
        assert rng.standard_normal(11).tobytes() == fresh.standard_normal(11).tobytes()
        assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tobytes() == fresh.integers(
            0, 2**32, size=3, dtype=np.uint32
        ).tobytes()

    def test_study_seeds_no_generator_per_replication(self, monkeypatch):
        # a serial study constructs one Philox per task, none per replication
        config, _ = reference_study_config()
        reference = run_study(config, rep_count=40, n_grid=(500, 9000))
        made = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            made.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(mvcreg._pool, "worker_count", lambda tasks: 1)
        monkeypatch.setattr(np.random, "Philox", counted)
        report = run_study(config, rep_count=40, n_grid=(500, 9000))
        assert len(made) == 2  # one task per grid point
        for point, expected in zip(report.points, reference.points):
            assert point.estimates.tobytes() == expected.estimates.tobytes()


class TestTrueMoments:
    def test_reference_design_closed_forms(self):
        config, _ = reference_study_config()
        moments = true_component_moments(config)
        np.testing.assert_allclose(
            moments.d2, [[[1.0, 1.0], [1.0, 2.0]], [[1.0, 2.0], [2.0, 6.25]]]
        )
        # fourth raw moments of the slope regressor: mu^4 + 6 mu^2 s^2 + 3 s^4
        slope = np.array([0.0, 1.0])
        quartic = _gaussian_quartic(moments.d2, moments.mean, slope)
        assert quartic[0, 1, 1] == pytest.approx(10.0)
        assert quartic[1, 1, 1] == pytest.approx(85.1875)
        np.testing.assert_allclose(moments.sigma2, [0.01**2, 0.05**2])
        np.testing.assert_allclose(moments.b, [[3.0, 0.5], [-2.0, 1.0]])

    def test_constant_regressor_moments(self):
        # a constant is a Gaussian with mean 1 and sd 0
        config = SimulationConfig(
            n_obs=10,
            components=(
                ComponentSpec(
                    regressors=(ConstantRegressor(), GaussianRegressor(mean=2.0, sd=1.5)),
                    error_sd=1.0,
                    coefficients=(0.0, 0.0),
                ),
            ),
            concentrations=ExplicitConcentrations(np.ones((10, 1))),
        )
        mom = true_component_moments(config)
        assert mom.mean.tolist() == [[1.0, 2.0]]
        assert mom.d2[0, 0].tolist() == [1.0, 2.0]
        assert mom.d2[0, :, 0].tolist() == [1.0, 2.0]
        assert _gaussian_quartic(mom.d2, mom.mean, np.array([1.0, 0.0])).tolist() == [
            [[1.0, 2.0], [2.0, 6.25]]
        ]

    def test_gaussian_moment_table(self):
        # second moments mu^2 + s^2 on the diagonal and mu_i mu_k off it; the
        # fourth raw moment mu^4 + 6 mu^2 s^2 + 3 s^4 of each regressor
        config = SimulationConfig(
            n_obs=10,
            components=(
                ComponentSpec(
                    regressors=(
                        GaussianRegressor(mean=2.0, sd=1.5),
                        GaussianRegressor(mean=-1.0, sd=0.5),
                    ),
                    error_sd=1.0,
                    coefficients=(0.0, 0.0),
                ),
            ),
            concentrations=ExplicitConcentrations(np.ones((10, 1))),
        )
        mom = true_component_moments(config)
        assert mom.mean.tolist() == [[2.0, -1.0]]
        assert mom.d2.tolist() == [[[6.25, -2.0], [-2.0, 1.25]]]
        first, second = _gaussian_quartic(mom.d2[0], mom.mean[0], np.eye(2))
        assert first[0, 0] == pytest.approx(85.1875)
        assert second[1, 1] == pytest.approx(1.0 + 6 * 0.25 + 3 * 0.0625)


class TestLimitCoMoments:
    def test_ramp_quadrature_values(self):
        config, _ = reference_study_config()
        co = limit_co_moments(config)[0]
        np.testing.assert_allclose(
            co, [[38 / 15, 7 / 15], [7 / 15, 8 / 15]], atol=1e-9
        )

    def test_mirrored_component(self):
        config, _ = reference_study_config()
        co = limit_co_moments(config)[1]
        np.testing.assert_allclose(
            co, [[8 / 15, 7 / 15], [7 / 15, 38 / 15]], atol=1e-9
        )

    def test_explicit_model_uses_finite_sample(self):
        config = one_component_config(n=40)
        np.testing.assert_allclose(limit_co_moments(config), [[[1.0]]], atol=1e-12)

    def test_explicit_limits_and_weights_do_not_depend_on_blas_threads(self, fresh_python):
        # with these rows, the limits differed between one and two OpenBLAS
        # threads when the weight columns were whole-N products p @ g, which
        # OpenBLAS splits between its threads; with each column formed a
        # block of rows at a time they do not.  compute_weights' p @ G is
        # pinned too
        code = (
            "import hashlib\n"
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from mvcreg.concentrations import build_gramian, compute_weights\n"
            "from mvcreg.simgen import ExplicitConcentrations, limit_co_moments\n"
            "from test_simgen import one_component_config\n"
            "values = np.random.default_rng(20).dirichlet(np.full(8, 0.5), size=73732)\n"
            "single = one_component_config(n=73732)\n"
            "config = replace(\n"
            "    single, components=single.components * 8,\n"
            "    concentrations=ExplicitConcentrations(values),\n"
            ")\n"
            "p = config.concentrations.matrix(config.n_obs)\n"
            "for out in (limit_co_moments(config), compute_weights(p, build_gramian(p))):\n"
            "    print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        args = ["-c", f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n" + code]
        assert fresh_python(args, 1) == fresh_python(args, 2)

    def test_quadrature_literals_are_numpys_rule(self):
        # the study's analytic limit, and so its golden bytes, follow the
        # rule's exact float64 values; numpy computes them, the module writes
        # them out, so they may differ by rounding on another numpy build
        nodes, weights = np.polynomial.legendre.leggauss(3)
        rule = {
            "nodes": (mvcreg.simgen._GAUSS3_NODES, nodes),
            "weights": (mvcreg.simgen._GAUSS3_WEIGHTS, weights),
        }
        for name, (ours, numpys) in rule.items():
            assert ours.dtype == np.float64 and ours.shape == (3,), name
            assert np.all(np.abs(ours - numpys) <= np.spacing(np.abs(numpys))), name
            if np.__version__ == "2.4.6":  # the build the golden digests were recorded with
                assert ours.tobytes() == numpys.tobytes(), name
        # the outer weight is 5/9 rounded up by one ulp, not 5 / 9
        assert mvcreg.simgen._GAUSS3_WEIGHTS[0] == np.nextafter(5 / 9, 1.0)

    @pytest.mark.parametrize("power, integral", [(0, 2.0), (2, 2 / 3), (4, 2 / 5)])
    def test_quadrature_integrates_the_limit_polynomials(self, power, integral):
        # three points integrate every polynomial of degree at most 5 over
        # [-1, 1] exactly; the co-moment limits have degree at most 4.  In
        # float64 that is exact to a few roundings
        nodes, weights = mvcreg.simgen._GAUSS3_NODES, mvcreg.simgen._GAUSS3_WEIGHTS
        got = weights @ nodes**power
        assert got == pytest.approx(integral, rel=4 * np.finfo(float).eps, abs=0.0)


def test_config_json_roundtrip(tmp_path):
    raw = {
        "n_obs": 64,
        "components": [
            {
                "regressors": [
                    {"kind": "constant"},
                    {"kind": "gaussian", "mean": 0.5, "sd": 2.0},
                ],
                "error_sd": 0.1,
                "coefficients": [1.0, -1.0],
            },
            {
                "regressors": [
                    {"kind": "constant"},
                    {"kind": "gaussian", "mean": -1.0, "sd": 1.0},
                ],
                "error_sd": 0.2,
                "coefficients": [0.0, 2.0],
            },
        ],
        "concentrations": {"model": "linear_ramp"},
        "seed": 99,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    config, options = load_config_file(path)
    assert config.n_obs == 64
    assert config.seed == 99
    assert config.components[1].regressors[1] == GaussianRegressor(mean=-1.0, sd=1.0)
    assert options.rep_count is None
