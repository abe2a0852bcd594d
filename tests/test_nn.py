"""Numerical kernel: primitives, exact backprop, FD checker, checkpoints."""

import numpy as np
import pytest

from ggsfc.nn import (
    GradSet,
    NonFiniteGradientError,
    ParamSet,
    finite_diff_check,
    fuse_gru,
    gru_cell,
    gru_cell_backward,
    gru_param_shapes,
    init_gru_params,
    load_checkpoint,
    log_prob_grad,
    masked_softmax,
    save_checkpoint,
    sgd_update,
    sigmoid,
    uniform_init,
)
from ggsfc.topology import generate_pool, internet2_fixture

UNIT_TOL = 1e-6


# ---------------------------------------------------------------------------
# containers

def test_param_set_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ParamSet({"w": np.array([1.0, np.nan])})
    with pytest.raises(ValueError, match="non-finite"):
        ParamSet({"w": np.array([np.inf])})


def test_param_set_copy_is_independent():
    p = ParamSet({"w": np.ones(3)})
    q = p.copy()
    q["w"][0] = 7.0
    assert p["w"][0] == 1.0


def test_param_set_accessors():
    p = ParamSet({"a": np.zeros((2, 3)), "b": np.zeros(4)})
    assert p.names() == ("a", "b")
    assert p.shapes() == {"a": (2, 3), "b": (4,)}
    assert "a" in p and "c" not in p


def test_grad_set_accumulates_and_scales():
    p = ParamSet({"w": np.zeros(2)})
    g = GradSet(p)
    g.add("w", np.array([1.0, 2.0]))
    g.add_all({"w": np.array([1.0, 1.0])})
    for _, v in g.items():  # items() yields the live slots
        v *= 0.5
    assert np.array_equal(g["w"], [1.0, 1.5])
    assert g.is_finite()
    g.add("w", np.array([np.nan, 0.0]))
    assert not g.is_finite()


def test_grad_set_rejects_shape_mismatch():
    g = GradSet(ParamSet({"w": np.zeros(2)}))
    with pytest.raises(ValueError, match="shape"):
        g.add("w", np.zeros(3))


def test_uniform_init_bounds_and_determinism():
    a = uniform_init((16, 4), np.random.default_rng(0))
    b = uniform_init((16, 4), np.random.default_rng(0))
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0 / 4.0)  # fan-in 16


# ---------------------------------------------------------------------------
# primitives

def test_sigmoid_matches_definition_and_is_stable():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)))
    big = np.array([-1000.0, 1000.0])
    out = sigmoid(big)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == pytest.approx(1.0)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)


def test_gru_cell_stays_inside_the_hidden_range():
    rng = np.random.default_rng(3)
    params = init_gru_params(3, 4, rng, prefix="g.")
    h = np.tanh(rng.normal(size=4))  # anything in [-1, 1]
    for _ in range(20):
        x = rng.normal(size=3)
        h, _ = gru_cell(x, h, fuse_gru(params, "g."))
        assert np.all(np.abs(h) <= 1.0)


def test_gru_cell_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=3)
    h0 = rng.normal(size=4) * 0.5
    v = rng.normal(size=4)
    params = ParamSet(init_gru_params(3, 4, rng, prefix="g."))

    def f(p):
        h, cache = gru_cell(x, h0, fuse_gru(p, "g."))
        value = float(v @ h)
        _, _, grads = gru_cell_backward(v, cache)
        g = GradSet(p)
        g.add_all(grads)
        return value, g

    report = finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert report.passed, str(report)


def test_gru_cell_batched_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    h0 = rng.normal(size=(6, 4)) * 0.5
    v = rng.normal(size=(6, 4))
    params = ParamSet(init_gru_params(3, 4, rng, prefix="g."))

    def f(p):
        h, cache = gru_cell(x, h0, fuse_gru(p, "g."))
        value = float((v * h).sum())
        _, _, grads = gru_cell_backward(v, cache)
        g = GradSet(p)
        g.add_all(grads)
        return value, g

    report = finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert report.passed, str(report)


def test_gru_input_and_state_gradients_match_finite_differences():
    # dx and dh_prev from the backward pass, probed by wrapping them as params
    rng = np.random.default_rng(6)
    gru = fuse_gru(init_gru_params(3, 4, rng, prefix="g."), "g.")
    v = rng.normal(size=4)
    params = ParamSet({"x": rng.normal(size=3), "h0": rng.normal(size=4) * 0.5})

    def f(p):
        h, cache = gru_cell(p["x"], p["h0"], gru)
        value = float(v @ h)
        dx, dh0, _ = gru_cell_backward(v, cache)
        g = GradSet(p)
        g.add_all({"x": dx, "h0": dh0})
        return value, g

    report = finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# the fused forward is bit-identical to the textbook formulas
#
# These compare bytes, so like the golden files they hold for the numpy/BLAS
# build they run on; the references are the formulas the kernels replaced.

def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_gru(x, h, params, prefix):
    p = lambda name: params[prefix + name]
    z = reference_sigmoid(x @ p("W_z") + h @ p("U_z") + p("b_z"))
    r = reference_sigmoid(x @ p("W_r") + h @ p("U_r") + p("b_r"))
    hbar = np.tanh(x @ p("W_h") + (r * h) @ p("U_h") + p("b_h"))
    return (1.0 - z) * h + z * hbar, z, r, hbar


SIGMOID_EDGES = [0.0, -0.0, 1e-310, -1e-310, 36.0, -36.0, 710.0, -710.0,
                 np.inf, -np.inf, np.nan, -np.nan]


def test_sigmoid_is_bit_identical_to_the_sign_split():
    """Byte-equal outputs, on this numpy build, at the edges (signed zeros,
    subnormals, saturation, overflow of exp, infinities, NaN of either
    sign) and on random values in 1-D and 2-D."""
    rng = np.random.default_rng(11)
    edges = np.array(SIGMOID_EDGES)
    for x in (edges, edges.reshape(3, 4), rng.normal(scale=8.0, size=997),
              rng.normal(scale=3.0, size=(40, 64))):
        assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()


def _random_gru(d_in, d_hidden, rng, prefix):
    return ParamSet({prefix + name: rng.normal(scale=0.5, size=shape)
                     for name, shape in gru_param_shapes(d_in, d_hidden).items()})


@pytest.mark.parametrize("shape", [
    pytest.param(lambda: (42,), id="decoder-42x32"),
    pytest.param(lambda: (internet2_fixture().num_nodes, 32), id="encoder-fixture"),
    pytest.param(lambda: (max(v.num_nodes for v in generate_pool(
        internet2_fixture(), "cs1", 3, seed=0).variants), 32), id="encoder-cs1"),
])
def test_fused_gru_cell_is_bit_identical_to_per_gate_products(shape):
    """Byte-equal h_new, z, r and hbar, on this numpy build, at the
    decoder's 1-D 42->32 step and the encoder's n x 32 step."""
    shape = shape()
    rng = np.random.default_rng(shape[0])
    h_shape = shape[:-1] + (32,)
    for _ in range(100):
        params = _random_gru(shape[-1], 32, rng, "g.")
        x = rng.normal(size=shape)
        h = np.tanh(rng.normal(size=h_shape))
        h_new, (_, _, z, r, _, hbar, _, _) = gru_cell(x, h, fuse_gru(params, "g."))
        for got, want in zip((h_new, z, r, hbar), reference_gru(x, h, params, "g.")):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# masked softmax

def test_masked_softmax_properties():
    logits = np.array([1.0, 2.0, 3.0, 4.0])
    mask = np.array([True, False, True, False])
    p = masked_softmax(logits, mask)
    assert p[1] == 0.0 and p[3] == 0.0
    assert p.sum() == pytest.approx(1.0)
    assert p[2] > p[0]
    # shift invariance
    q = masked_softmax(logits + 100.0, mask)
    assert np.allclose(p, q)


def test_masked_softmax_single_entry_and_extremes():
    p = masked_softmax(np.array([5.0, -2.0]), np.array([False, True]))
    assert np.array_equal(p, [0.0, 1.0])
    p = masked_softmax(np.array([1e6, -1e6, 0.0]), np.ones(3, dtype=bool))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)


def test_masked_softmax_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="unmasked"):
        masked_softmax(np.zeros(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="shape"):
        masked_softmax(np.zeros(3), np.zeros(4, dtype=bool))


def test_log_prob_grad_matches_finite_differences():
    mask = np.array([True, True, False, True])
    index = 1

    params = ParamSet({"logits": np.array([0.3, -0.2, 9.0, 0.5])})

    def f(p):
        probs = masked_softmax(p["logits"], mask)
        value = float(np.log(probs[index]))
        g = GradSet(p)
        g.add("logits", log_prob_grad(probs, index))
        return value, g

    report = finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert report.passed, str(report)


def test_log_prob_grad_rejects_masked_index():
    probs = masked_softmax(np.zeros(3), np.array([True, False, True]))
    with pytest.raises(ValueError, match="zero probability"):
        log_prob_grad(probs, 1)


# ---------------------------------------------------------------------------
# SGD

def test_sgd_update_ascends():
    p = ParamSet({"w": np.array([1.0, 2.0])})
    g = GradSet(p)
    g.add("w", np.array([10.0, -10.0]))
    up = sgd_update(p, g, alpha=0.1)
    assert np.allclose(up["w"], [2.0, 1.0])
    # input untouched
    assert np.array_equal(p["w"], [1.0, 2.0])


def test_sgd_update_rejects_non_finite_gradients():
    p = ParamSet({"w": np.zeros(2)})
    g = GradSet(p)
    g.add("w", np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteGradientError):
        sgd_update(p, g, alpha=0.1)


def test_sgd_update_validates_arguments():
    p = ParamSet({"w": np.zeros(2)})
    g = GradSet(p)
    with pytest.raises(ValueError, match="alpha"):
        sgd_update(p, g, alpha=0.0)
    with pytest.raises(ValueError, match="layout"):
        sgd_update(p, GradSet(ParamSet({"v": np.zeros(2)})), alpha=0.1)


def test_sgd_update_refuses_a_step_that_overflows():
    p = ParamSet({"w": np.array([1e308, 0.0])})
    g = GradSet(p)
    g.add("w", np.array([1e308, 0.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="'w' has non-finite"):
        sgd_update(p, g, alpha=10.0)


def test_flat_sgd_update_is_bit_identical_to_per_tensor_steps():
    """Byte-equal to value + alpha * g per tensor, over mixed shapes,
    magnitudes from 1e-300 to 1e30 and signed zeros."""
    rng = np.random.default_rng(13)
    shapes = {"W": (32, 96), "b": (96,), "v": (32,), "s": (1,), "M": (3, 4, 5)}
    for trial in range(20):
        def draw(shape):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 30, size=shape)
            specials = [0.0, -0.0, 5e-324][: x.size]
            x.reshape(-1)[: len(specials)] = specials
            return x
        p = ParamSet({name: draw(shape) for name, shape in shapes.items()})
        g = GradSet(p)
        g.add_all({name: draw(shape) for name, shape in shapes.items()})
        alpha = float(10.0 ** rng.uniform(-9, -1))
        new = sgd_update(p, g, alpha)
        assert new.names() == p.names()
        for name, value in p.items():
            assert new[name].tobytes() == (value + alpha * g[name]).tobytes()


# ---------------------------------------------------------------------------
# the checker itself

def quadratic_case():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    params = ParamSet({"x": rng.normal(size=4)})

    def f(p):
        x = p["x"]
        value = float(x @ a @ x)
        g = GradSet(p)
        g.add("x", (a + a.T) @ x)
        return value, g

    return f, params


def test_finite_diff_check_passes_a_correct_gradient():
    f, params = quadratic_case()
    report = finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert report.passed
    assert report.max_rel_err <= UNIT_TOL
    assert "PASS" in str(report)


def test_finite_diff_check_catches_a_planted_error():
    f, params = quadratic_case()

    def broken(p):
        value, g = f(p)
        for _, v in g.items():
            v *= 1.01  # one percent off
        return value, g

    report = finite_diff_check(broken, params, tolerance=UNIT_TOL)
    assert not report.passed
    assert report.max_rel_err > 1e-3
    assert "FAIL" in str(report)


def test_finite_diff_check_leaves_params_untouched():
    f, params = quadratic_case()
    before = params["x"].copy()
    finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert np.array_equal(params["x"], before)


def test_finite_diff_check_subsampling_is_seeded():
    rng = np.random.default_rng(8)
    params = ParamSet({"w": rng.normal(size=(10, 10))})
    v = rng.normal(size=10)
    x = rng.normal(size=10)

    def f(p):
        value = float(v @ (p["w"] @ x))
        g = GradSet(p)
        g.add("w", np.outer(v, x))
        return value, g

    a = finite_diff_check(f, params, max_coords_per_tensor=10,
                          rng=np.random.default_rng(1))
    b = finite_diff_check(f, params, max_coords_per_tensor=10,
                          rng=np.random.default_rng(1))
    assert a.rel_err == b.rel_err
    assert a.passed


def test_finite_diff_check_rejects_non_finite_value():
    params = ParamSet({"x": np.zeros(1)})

    def f(p):
        return float("nan"), GradSet(p)

    with pytest.raises(ValueError, match="not finite"):
        finite_diff_check(f, params)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    params = ParamSet({
        "enc.W": rng.normal(size=(7, 3)) * 1e-7,
        "b": rng.normal(size=5) * 1e3,
    })
    meta = {"hidden_dim": 3, "seed": 9, "training_stage": "sl"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, meta, path)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    for name in params.names():
        assert np.array_equal(loaded[name], params[name])  # exact, not approx


def test_checkpoint_bytes_are_deterministic(tmp_path):
    params = ParamSet({"w": np.linspace(-1, 1, 7)})
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, {"seed": 0}, a)
    save_checkpoint(params, {"seed": 0}, b)
    assert a.read_bytes() == b.read_bytes()
