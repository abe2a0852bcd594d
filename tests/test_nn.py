"""Numerical kernel: primitives, exact backprop, FD checker."""

import numpy as np
import pytest

from ggsfc.nn import (
    GradSet,
    NonFiniteGradientError,
    ParamSet,
    fuse_gru,
    gru_cell,
    gru_cell_backward,
    gru_grads_by_name,
    gru_input_grad,
    gru_param_grads,
    gru_param_shapes,
    gru_step_grads,
    log_prob_grad,
    masked_softmax,
    outer_sum,
    sgd_update,
    sigmoid,
    sum_in_order,
    uniform_init,
)
from ggsfc.topology import generate_pool, internet2_fixture
from support import finite_diff_check, grad_set, init_gru_params, reference_gru_cell_backward

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
    assert p["a"].shape == (2, 3) and [name for name, _ in p.items()] == ["a", "b"]


def test_grad_set_accumulates_and_scales():
    p = ParamSet({"w": np.zeros(2)})
    g = GradSet(p)
    g.add_stack("w", np.array([[1.0, 2.0]]))
    g.add_stack("w", np.array([[1.0, 1.0]]))
    for _, v in g.items():  # items() yields the live slots
        v *= 0.5
    g.add_stack("w", np.zeros((1, 2)))  # from the scaled slot, not from zero
    assert np.array_equal(g["w"], [1.0, 1.5])
    assert g.is_finite()
    g.add_stack("w", np.array([[np.nan, 0.0]]))
    assert not g.is_finite()


def test_grad_set_rejects_shape_mismatch():
    g = GradSet(ParamSet({"w": np.zeros(2)}))
    with pytest.raises(ValueError, match="shape"):
        g.add_stack("w", np.zeros((1, 3)))
    with pytest.raises(ValueError, match="shape"):
        g.add_stack("w", np.zeros(2))


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
        _, _, da = gru_cell_backward(v, cache)
        return value, _param_grads(p, [cache], [da])

    report = finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert report.passed, str(report)


def _param_grads(params, caches, gates):
    """The parameter gradients of a stack of the cells, summed along its
    leading axis, as a GradSet: gru_step_grads of 1-D cells, or
    gru_param_grads of 2-D batches."""
    x, h_prev, rh = (np.stack([c[i] for c in caches]) for i in (0, 1, 4))
    g = GradSet(params)
    if x.ndim == 2:
        for name, grad in gru_step_grads(x, h_prev, rh, np.stack(gates)).items():
            g["g." + name][...] = grad
        return g
    for name, stack in gru_grads_by_name(*gru_param_grads(x, h_prev, rh, np.stack(gates))).items():
        g.add_stack("g." + name, stack)
    return g


def test_gru_cell_batched_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    h0 = rng.normal(size=(6, 4)) * 0.5
    v = rng.normal(size=(6, 4))
    params = ParamSet(init_gru_params(3, 4, rng, prefix="g."))

    def f(p):
        h, cache = gru_cell(x, h0, fuse_gru(p, "g."))
        value = float((v * h).sum())
        _, _, da = gru_cell_backward(v, cache)
        return value, _param_grads(p, [cache], [da])

    report = finite_diff_check(f, params, tolerance=UNIT_TOL)
    assert report.passed, str(report)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["1-D", "2-D"])
def test_a_stack_of_gru_cells_sums_its_gradients_along_the_leading_axis(batch):
    """Five cells, each with its own input, state and output weights: the
    stack's parameter gradients, added item by item, are the gradient of the
    summed outputs."""
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, *batch, 3))
    h0 = rng.normal(size=(5, *batch, 4)) * 0.5
    v = rng.normal(size=(5, *batch, 4))
    params = ParamSet(init_gru_params(3, 4, rng, prefix="g."))

    def f(p):
        w = fuse_gru(p, "g.")
        caches, gates, value = [], [], 0.0
        for i in range(5):
            h, cache = gru_cell(x[i], h0[i], w)
            value += float((v[i] * h).sum())
            caches.append(cache)
            gates.append(gru_cell_backward(v[i], cache)[2])
        return value, _param_grads(p, caches, gates)

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
        return value, grad_set(p, {"x": dx, "h0": dh0})

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


def where_sigmoid(x):
    """nn.sigmoid as it was before its numerator became a maximum."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# the shapes the GRU gates take: a 1-D step (2H,), a lockstep decoder stack
# (L, 1, 2H) and an encoder stack (S, n, 2H)
@pytest.mark.parametrize("shape", [(64,), (7, 1, 64), (16, 12, 64)])
def test_sigmoid_keeps_the_bytes_of_the_where_numerator(shape):
    """Byte-equal to the np.where numerator, with signed zeros, infinities,
    NaNs of both signs and |x| up to 800 placed among the values."""
    edges = np.array(SIGMOID_EDGES + [800.0, -800.0])
    assert np.signbit(edges[-3]) and not np.signbit(edges[-4])  # both NaN signs
    rng = np.random.default_rng(len(shape))
    for scale in (1.0, 40.0, 800.0):
        for _ in range(20):
            x = rng.uniform(-scale, scale, size=shape)
            x.reshape(-1)[rng.permutation(x.size)[: len(edges)]] = edges
            assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()


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
        h_new, (_, _, z, r, _, hbar, _) = gru_cell(x, h, fuse_gru(params, "g."))
        for got, want in zip((h_new, z, r, hbar), reference_gru(x, h, params, "g.")):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the kernels write their temporaries in place, into arrays of their own,
# and keep the bytes of the out-of-place formulas they replaced

def out_of_place_gru(x, h_prev, params, prefix):
    """nn.gru_cell as it was before it wrote in place: one fused
    x @ [W_z|W_r|W_h] product, sliced; returns h_new and the cached arrays."""
    p = lambda name: params[prefix + name]
    d = p("U_h").shape[0]
    xw = x @ np.concatenate([p("W_z"), p("W_r"), p("W_h")], axis=1)
    u_zr = np.concatenate([p("U_z"), p("U_r")], axis=1)
    zr = where_sigmoid(xw[..., : 2 * d] + h_prev @ u_zr + np.concatenate([p("b_z"), p("b_r")]))
    z, r = zr[..., :d], zr[..., d:]
    rh = r * h_prev
    hbar = np.tanh(xw[..., 2 * d :] + rh @ p("U_h") + p("b_h"))
    return (1.0 - z) * h_prev + z * hbar, (x, h_prev, z, r, rh, hbar)


def out_of_place_masked_softmax(logits, mask):
    shifted = logits - logits.max(axis=-1, keepdims=True, where=mask, initial=-np.inf)
    e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(64,), (7, 1, 64), (16, 12, 64)])
def test_sigmoid_writes_only_an_array_of_its_own(shape):
    """x is not written, NaNs and infinities among its values, and the
    result shares no memory with it (its bytes: see the where test above)."""
    rng = np.random.default_rng(len(shape))
    edges = np.array(SIGMOID_EDGES)
    for scale in (1.0, 40.0, 800.0):
        x = rng.uniform(-scale, scale, size=shape)
        x.reshape(-1)[rng.permutation(x.size)[: len(edges)]] = edges
        before = x.copy()
        out = sigmoid(x)
        assert x.tobytes() == before.tobytes() and not np.shares_memory(out, x)


# 1-D decoder steps, (L, 1, d) lockstep decoder stacks and (S, n, H) encoder stacks
GRU_SHAPES = ([(42,), (1, 1, 42), (7, 1, 42), (40, 1, 42)]
              + [(stack, n, 32) for stack in (1, 7, 16) for n in (12, 13, 14, 16)])


@pytest.mark.parametrize("shape", GRU_SHAPES, ids=str)
def test_gru_cell_keeps_the_out_of_place_bytes_of_h_new_and_every_cache(shape):
    """Byte-equal h_new and cached x, h_prev, z, r, rh and hbar; no argument
    is written, and h_new shares no memory with anything cached."""
    rng = np.random.default_rng(sum(shape))
    h_shape = shape[:-1] + (32,)
    for _ in range(10):
        params = _random_gru(shape[-1], 32, rng, "g.")
        w = fuse_gru(params, "g.")
        x = rng.normal(size=shape)
        h = np.tanh(rng.normal(size=h_shape))
        before = [a.copy() for a in (x, h, params._flat)]
        weights = [a.copy() for a in (w.W_zr, w.U_zr, w.b_zr, w.W_h, w.U_h, w.b_h)]
        h_new, cache = gru_cell(x, h, w)
        want_h, want_cache = out_of_place_gru(x, h, params, "g.")
        assert h_new.tobytes() == want_h.tobytes()
        assert cache[6] is w
        for got, want in zip(cache[:6], want_cache):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not np.shares_memory(h_new, got)
        assert [a.tobytes() for a in (x, h, params._flat)] == [a.tobytes() for a in before]
        assert [a.tobytes() for a in (w.W_zr, w.U_zr, w.b_zr, w.W_h, w.U_h, w.b_h)] == \
            [a.tobytes() for a in weights]


@pytest.mark.parametrize("shape", GRU_SHAPES, ids=str)
def test_split_input_products_equal_the_fused_products_column_slices(shape):
    """x @ W_x[:, :2H] and x @ W_x[:, 2H:], strided or contiguous, give the
    bytes of the fused x @ W_x product's column slices: each element is the
    same dot product, summed in the same order."""
    rng = np.random.default_rng(sum(shape) + 1)
    for _ in range(10):
        w_x = rng.normal(scale=0.5, size=(shape[-1], 96))
        x = rng.normal(size=shape)
        fused = x @ w_x
        for cols in (slice(None, 64), slice(64, None)):
            assert (x @ w_x[:, cols]).tobytes() == fused[..., cols].tobytes()
            assert (x @ np.ascontiguousarray(w_x[:, cols])).tobytes() == fused[..., cols].tobytes()


@pytest.mark.parametrize("n", [1, 2, 12, 15])
def test_masked_softmax_keeps_the_out_of_place_bytes_and_its_arguments(n):
    """Byte-equal rows, a row with one unmasked entry among them, for 1-D
    and (L, n) calls; logits and mask are not written, and the result is
    an array of its own."""
    rng = np.random.default_rng(n)
    for scale in (0.1, 3.0, 60.0):
        logits = rng.normal(scale=scale, size=(9, n))
        mask = rng.random((9, n)) < 0.5
        mask[np.arange(9), rng.integers(0, n, size=9)] = True
        mask[0] = False
        mask[0, n // 2] = True  # a row with a single unmasked entry
        for got_logits, got_mask in ((logits, mask), (logits[4], mask[4]), (logits[0], mask[0])):
            before = got_logits.copy(), got_mask.copy()
            out = masked_softmax(got_logits, got_mask)
            assert out.tobytes() == out_of_place_masked_softmax(got_logits, got_mask).tobytes()
            assert got_logits.tobytes() == before[0].tobytes()
            assert got_mask.tobytes() == before[1].tobytes()
            assert not np.shares_memory(out, got_logits)
        assert masked_softmax(logits[0], mask[0]).tolist() == [float(i == n // 2) for i in range(n)]


# ---------------------------------------------------------------------------
# the stacks of a lockstep walk: each slice keeps its unstacked bits

def test_decoder_stack_rows_equal_the_1d_product():
    """(L, 1, d) @ W, as the decoder's GRU and scorer take it for L live
    episodes, gives each row the bytes of the 1-D x @ W of one episode."""
    rng = np.random.default_rng(21)
    for d_in, d_out in ((42, 96), (32, 64), (32, 32)):
        for live in (1, 2, 7, 40):
            x = rng.normal(size=(live, d_in))
            w = rng.normal(size=(d_in, d_out))
            stacked = x[:, None, :] @ w
            for row in range(live):
                assert stacked[row, 0].tobytes() == (x[row] @ w).tobytes()


def test_scorer_stack_slices_equal_the_2d_product():
    """(L, n, H) @ v and @ proc.w give each slice the bytes of (n, H) @ v."""
    rng = np.random.default_rng(22)
    for n in (2, 12, 15):
        s = np.tanh(rng.normal(size=(9, n, 32)))
        for v in (rng.normal(size=32), rng.uniform(-0.2, 0.2, size=32)):
            stacked = s @ v
            for row in range(len(s)):
                assert stacked[row].tobytes() == (s[row] @ v).tobytes()


def test_adjacency_stack_slices_equal_the_broadcast_product():
    """(T, n, n) @ (T, n, H), one adjacency per segment, gives each slice the
    bytes of the a @ h an episode takes over its own (S, n, H) stack."""
    rng = np.random.default_rng(23)
    for n in (3, 12, 14):
        a = (rng.random((16, n, n)) < 0.3).astype(float)
        h = rng.normal(size=(16, n, 32))
        stacked = a @ h
        for t in range(len(a)):
            assert stacked[t].tobytes() == (a[t] @ h)[t].tobytes()


def test_gathering_after_the_product_keeps_each_rows_bits():
    """The chosen node's process logit is (s @ w)[rows, nodes]: each entry is
    the one the episode's own (n, H) @ w gives.  Gathering first,
    s[rows, nodes] @ w, is an (L, H) @ w product, which differs on this
    build (see the module docstring), so the lockstep never takes it."""
    rng = np.random.default_rng(24)
    for _ in range(200):
        live = int(rng.integers(1, 60))
        s = np.tanh(rng.normal(size=(live, 12, 32)))
        w = rng.uniform(-0.2, 0.2, size=32)
        nodes = rng.integers(0, 12, size=live)
        gathered = (s @ w)[np.arange(live), nodes]
        own = np.array([(s[row] @ w)[nodes[row]] for row in range(live)])
        assert gathered.tobytes() == own.tobytes()


# ---------------------------------------------------------------------------
# the episode backward's stacks: each item keeps the bits of its own step,
# and each sum adds the items in order

def test_sum_in_order_adds_one_item_at_a_time():
    """Byte-equal to a loop of start + item, over item shapes where numpy's
    own sum adds pairwise ((T,) and (T, 1)) and where it does not, with
    magnitudes from 1e-8 to 1e8 and signed zeros; a running sum carried from
    one stack into the next gives the sum over both, a zero-array start the
    bytes of a loop from 0.0, and an empty stack its start."""
    rng = np.random.default_rng(30)
    pairwise = 0
    for shape in [(200,), (200, 1), (200, 1, 2), (40, 3), (40, 42, 32), (5, 3, 32, 96)]:
        for _ in range(10):
            stack = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            stack[rng.random(shape) < 0.2] = -0.0
            start = rng.normal(size=shape[1:])
            want = start.copy()
            for item in stack:
                want = want + item
            pairwise += stack.sum(axis=0).tobytes() != (want - start).tobytes()
            assert sum_in_order(start, stack.copy()).tobytes() == want.tobytes()
            carried = sum_in_order(start, stack[:7].copy())
            assert sum_in_order(carried, stack[7:].copy()).tobytes() == want.tobytes()
            from_zero = 0.0
            for item in stack:
                from_zero = from_zero + item
            assert sum_in_order(np.zeros(shape[1:]), stack).tobytes() == from_zero.tobytes()
        assert sum_in_order(start, stack[:0]).tobytes() == start.tobytes()
    assert pairwise > 0  # numpy's sum does differ somewhere, so the check has teeth


def test_outer_sum_adds_each_steps_outer_product_in_order():
    """Byte-equal, on this numpy build, to acc = 0.0 + outer(a[0], b[0]) +
    outer(a[1], b[1]) + ..., for 1-40, 608 and 2001 steps, widths 1-8 and
    the backward's (42, 96), (32, 64) and (32, 32), with zeros, signed
    zeros, row scales from 1e-8 to 1e4 and b a column slice of a wider
    gates array, returned or written into a GradSet-like slot; a 1x1 result
    and rows that do not follow one another are refused.  For the fused
    GRU gate layouts, (42, 96) and (3, 12) in three blocks and (32, 64) and
    (4, 8) in two, each column block of the result is the outer_sum of its
    own column slice of b."""
    rng = np.random.default_rng(31)
    widths = [(m, n, 1) for m in range(1, 9) for n in range(1, 9) if m * n > 1]
    fused = [(42, 96, 3), (32, 64, 2), (32, 32, 1), (3, 12, 3), (4, 8, 2)]
    blas = 0
    for steps in [*range(1, 41), 608, 2001]:
        for m, n, blocks in widths + fused:
            a = rng.normal(size=(steps, m)) * 10.0 ** rng.integers(-8, 5, size=(steps, 1))
            gates = rng.normal(size=(steps, n + 3)) * 10.0 ** rng.integers(-8, 5, size=(steps, 1))
            a[rng.random(a.shape) < 0.1] = 0.0
            gates[rng.random(gates.shape) < 0.1] = -0.0
            b = gates[:, 2 : 2 + n]
            want = 0.0
            for t in range(steps):
                want = want + np.outer(a[t], b[t])
            flat = np.ones(m * n + 2)
            out = flat[1:-1].reshape(m, n)
            assert outer_sum(a, b).tobytes() == want.tobytes()
            assert outer_sum(a, b, out=out) is out and out.tobytes() == want.tobytes()
            for k in range(blocks):
                cols = slice(k * n // blocks, (k + 1) * n // blocks)
                assert outer_sum(a, b[:, cols]).tobytes() == want[:, cols].tobytes()
            blas += (a.T @ b).tobytes() != want.tobytes()
    assert blas > 0  # a matrix product does differ somewhere, so the check has teeth
    with pytest.raises(ValueError, match="1x1"):
        outer_sum(np.ones((5, 1)), np.ones((5, 1)))
    for a, b in [(np.asfortranarray(np.ones((5, 3))), np.ones((5, 4))),
                 (np.ones((5, 3)), np.ones((5, 4))[::-1])]:
        with pytest.raises(ValueError, match="follow"):
            outer_sum(a, b)


def test_grad_set_adds_a_stack_in_order():
    p = ParamSet({"w": np.zeros((2, 3)), "b": np.zeros(1)})
    g = grad_set(p, {"w": np.full((2, 3), 0.5)})
    g.add_stack("w", np.stack([np.ones((2, 3)), -np.ones((2, 3)) * 2]))
    g.add_stack("b", np.array([[1e16], [1.0], [-1e16]]))
    assert np.array_equal(g["w"], np.full((2, 3), -0.5))
    assert g["b"].tolist() == [((0.0 + 1e16) + 1.0) - 1e16]


# 1-D decoder steps and (S, n, H) encoder stacks
BACKWARD_SHAPES = [(42,), (32,), (1, 12, 32), (5, 12, 32), (3, 15, 32)]


@pytest.mark.parametrize("shape", BACKWARD_SHAPES, ids=str)
def test_split_gru_backward_keeps_each_cells_bytes(shape):
    """Byte-equal to the backward that formed each cell's parameter
    gradients on its own, on this numpy build: grad_x and grad_h_prev of
    gru_cell_backward; over a stack of eight cells, for 2-D batches each
    item's slices of gru_param_grads, and for 1-D cells gru_step_grads,
    each the cells' own gradients added from 0.0 in step order, and the
    rows of gru_input_grad over an (L, 1, 3H) stack of their gates."""
    rng = np.random.default_rng(sum(shape) + 2)
    h_shape = shape[:-1] + (32,)
    for _ in range(5):
        params = _random_gru(shape[-1], 32, rng, "g.")
        w = fuse_gru(params, "g.")
        caches, gates, refs = [], [], []
        for _ in range(8):
            _, cache = gru_cell(rng.normal(size=shape), np.tanh(rng.normal(size=h_shape)), w)
            grad = rng.normal(size=h_shape)
            dx, dh, da = gru_cell_backward(grad, cache)
            ref_dx, ref_dh, ref_grads = reference_gru_cell_backward(grad, cache, params, "g.")
            assert dx.tobytes() == ref_dx.tobytes() and dh.tobytes() == ref_dh.tobytes()
            caches.append(cache)
            gates.append(da)
            refs.append(ref_grads)
        x, h_prev, rh = (np.stack([c[i] for c in caches]) for i in (0, 1, 4))
        if len(shape) > 1:
            grads = gru_grads_by_name(*gru_param_grads(x, h_prev, rh, np.stack(gates)))
            wants = {name: np.stack([ref[name] for ref in refs]) for name in refs[0]}
        else:
            grads = gru_step_grads(x, h_prev, rh, np.stack(gates))
            wants = {name: sum((ref[name] for ref in refs), 0.0) for name in refs[0]}
        assert {"g." + name for name in grads} == wants.keys()
        for name, want in wants.items():
            assert grads[name[2:]].tobytes() == want.tobytes(), name
        if len(shape) == 1:
            rows = gru_input_grad(np.stack(gates)[:, None, :], w)[:, 0]
            for row, da in zip(rows, gates):
                assert row.tobytes() == gru_input_grad(da, w).tobytes()


def test_batched_sigmoid_elements_equal_one_element_calls():
    """episode_gradients takes every process decision's sigmoid in one call,
    where _greedy_action takes one 1-element call per step: on this numpy
    build each element has the bytes of the 1-element call, at lengths and
    offsets that cover every SIMD remainder and at magnitudes up to 800."""
    rng = np.random.default_rng(31)
    for scale in (1e-3, 1.0, 10.0, 40.0, 800.0):
        x = rng.normal(scale=scale, size=300)
        x[:len(SIGMOID_EDGES)] = SIGMOID_EDGES
        for lo, hi in [(0, 300), *((o, o + n) for n in range(1, 18) for o in (0, 1, 3))]:
            batched = sigmoid(x[lo:hi])
            for i in range(lo, hi):
                assert batched[i - lo].tobytes() == sigmoid(x[i : i + 1])[0].tobytes()


# ---------------------------------------------------------------------------
# masked softmax

def _masked_softmax_1d(logits, mask):
    """The 1-D formula every trained parameter was computed with."""
    shifted = logits - logits[mask].max()
    e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum()


def test_batched_masked_softmax_rows_equal_the_1d_call():
    """Each row of an (L, n) call has the bytes of the 1-D call on that row,
    and the 1-D call keeps the bytes of the 1-D formula."""
    rng = np.random.default_rng(25)
    for n in (1, 2, 7, 12, 15, 33):
        for scale in (0.1, 3.0, 60.0):
            logits = rng.normal(scale=scale, size=(40, n))
            mask = rng.random((40, n)) < 0.5
            mask[np.arange(40), rng.integers(0, n, size=40)] = True
            batched = masked_softmax(logits, mask)
            for row in range(40):
                one = masked_softmax(logits[row], mask[row])
                assert one.tobytes() == _masked_softmax_1d(logits[row], mask[row]).tobytes()
                assert batched[row].tobytes() == one.tobytes()


def test_batched_masked_softmax_rejects_a_row_with_nothing_unmasked():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(ValueError, match="at least one unmasked"):
        masked_softmax(np.zeros((2, 2)), mask)

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


@pytest.mark.filterwarnings("error")
def test_masked_softmax_is_silent_on_masked_logits_that_would_overflow():
    """Masked entries far above the unmasked max (a score.v entry of -2**63
    gives such logits), inf or NaN give no floating-point warning, and the
    bytes are those of the out-of-place formula."""
    big = 2.0**63
    for logits, mask in [
        (np.array([-big, big, 0.3 * big, -0.5 * big]), np.array([True, False, False, True])),
        (np.array([[1.0, np.inf, np.nan, -np.inf, 1e308], [-1e308, 2.0, big, 0.0, -big]]),
         np.array([[True, False, False, False, False], [True, False, False, True, True]])),
    ]:
        with np.errstate(over="ignore"):
            want = out_of_place_masked_softmax(logits, mask)
        assert masked_softmax(logits, mask).tobytes() == want.tobytes()


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
        return value, grad_set(p, {"logits": log_prob_grad(probs, index)})

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
    g = grad_set(p, {"w": np.array([10.0, -10.0])})
    up = sgd_update(p, g, alpha=0.1)
    assert np.allclose(up["w"], [2.0, 1.0])
    # input untouched
    assert np.array_equal(p["w"], [1.0, 2.0])


def test_sgd_update_rejects_non_finite_gradients():
    p = ParamSet({"w": np.zeros(2)})
    g = grad_set(p, {"w": np.array([1.0, np.inf])})
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
    g = grad_set(p, {"w": np.array([1e308, 0.0])})
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
        g = grad_set(p, {name: draw(shape) for name, shape in shapes.items()})
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
        return value, grad_set(p, {"x": (a + a.T) @ x})

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
        return value, grad_set(p, {"w": np.outer(v, x)})

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
