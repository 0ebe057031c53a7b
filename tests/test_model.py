import numpy as np
import pytest

from bilink import autodiff as ad
from bilink.autodiff import Tape, Tensor, backward
from bilink.graph import build_weighted_adjacency
from bilink.model import (decode_logits, ema_update, encode, encoder_shapes,
                          init_decoder, init_model_state, mlp_forward,
                          model_shapes, state_checksum)
from bilink.optim import adam_step, init_adam_state
from util import encode_oracle, make_graph


def prelu_np(x, slope=0.25):
    return np.where(x < 0, slope * x, x)


def dense_mlp(h, params, prefix):
    """Independent dense evaluation of a two-layer head."""
    w = {k[len(prefix) + 1:]: t.data for k, t in params.items() if k.startswith(prefix)}
    hidden = prelu_np(h @ w["layer1.weight"] + w["layer1.bias"], w["slope"][0, 0])
    return hidden @ w["layer2.weight"] + w["layer2.bias"]


def online_params(rng, d_u=3, d_v=4, input_dim=5, hidden_dim=6, output_dim=4):
    return init_model_state(rng, d_u, d_v, input_dim, hidden_dim, output_dim).online


def assert_in_buffer(store):
    for name, t in store.items():
        assert np.shares_memory(t.data, store.flat), name


class TestEncode:
    def _setup(self, seed=0, n_u=3, n_v=4, d_u=3, d_v=5):
        rng = np.random.default_rng(seed)
        edges = [(int(rng.integers(0, n_u)), int(rng.integers(0, n_v)),
                  float(rng.uniform(0.5, 3)), t) for t in range(8)]
        g = make_graph(n_u, n_v, edges, d_u=d_u, d_v=d_v, rng=rng)
        params = online_params(rng, d_u, d_v, input_dim=6, hidden_dim=7, output_dim=4)
        adj = build_weighted_adjacency(g, use_weights=True)
        return g, params, adj

    def test_zero_features_zero_biases_zero_embeddings(self):
        g, params, adj = self._setup()
        h = encode(params, adj, np.zeros_like(g.x_u), np.zeros_like(g.x_v))
        np.testing.assert_array_equal(h.data, np.zeros((g.n_u + g.n_v, 4)))

    def test_isolated_node_sees_only_itself(self):
        g = make_graph(2, 1, [(0, 0, 1.0, 1)])  # u=1 isolated
        rng = np.random.default_rng(1)
        params = online_params(rng, 3, 4, input_dim=5, hidden_dim=6, output_dim=4)
        adj = build_weighted_adjacency(g, use_weights=True)
        h_u_before = encode(params, adj, g.x_u, g.x_v, slice(0, 2))

        x_u2 = g.x_u.copy()
        x_u2[0] += 10.0  # perturb the other U node
        x_v2 = g.x_v + 5.0
        h_u_after = encode(params, adj, x_u2, x_v2, slice(0, 2))
        np.testing.assert_allclose(h_u_before.data[1], h_u_after.data[1], atol=1e-12)
        assert not np.allclose(h_u_before.data[0], h_u_after.data[0])

    def test_matches_dense_two_layer_oracle(self):
        g, params, adj = self._setup(seed=2)
        h = encode(params, adj, g.x_u, g.x_v).data

        a = adj.toarray()
        w = {name: t.data for name, t in params.items()}
        h0 = np.vstack([
            g.x_u @ w["encoder.proj_u.weight"] + w["encoder.proj_u.bias"],
            g.x_v @ w["encoder.proj_v.weight"] + w["encoder.proj_v.bias"],
        ])
        h1 = np.maximum(a @ h0 @ w["encoder.conv1"], 0.0)
        h2 = a @ h1 @ w["encoder.conv2"]
        assert np.max(np.abs(h - h2)) < 1e-10

    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_matches_explicit_projection_oracle(self, dropout_p):
        g, params, adj = self._setup(seed=5, n_u=6, n_v=7)
        h = encode(params, adj, g.x_u, g.x_v, dropout_p=dropout_p, dropout_seed=9).data
        o_u, o_v = encode_oracle(params, adj, g.x_u, g.x_v, dropout_p, dropout_seed=9)
        np.testing.assert_allclose(h[:g.n_u], o_u, rtol=1e-12, atol=0)
        np.testing.assert_allclose(h[g.n_u:], o_v, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rows", [slice(0, 6), slice(6, None), slice(2, 9)])
    def test_rows_equal_slice_of_full_output(self, rows):
        g, params, adj = self._setup(seed=6, n_u=6, n_v=7)
        full = encode(params, adj, g.x_u, g.x_v, dropout_p=0.3, dropout_seed=4).data
        part = encode(params, adj, g.x_u, g.x_v, rows, dropout_p=0.3, dropout_seed=4).data
        np.testing.assert_array_equal(part, full[rows])

    def test_unweighted_flag_equals_unit_weight_graph(self):
        rng = np.random.default_rng(4)
        edges = [(i % 3, i % 4, float(1 + 376 * (i % 2)), i) for i in range(9)]
        g_heavy = make_graph(3, 4, edges, rng=np.random.default_rng(10))
        g_unit = make_graph(3, 4, [(u, v, 1.0, t) for u, v, _, t in edges],
                            rng=np.random.default_rng(10))
        params = online_params(rng, 3, 4, input_dim=5, hidden_dim=6, output_dim=4)
        adj_a = build_weighted_adjacency(g_heavy, use_weights=False)
        adj_b = build_weighted_adjacency(g_unit, use_weights=True)
        ha = encode(params, adj_a, g_heavy.x_u, g_heavy.x_v)
        hb = encode(params, adj_b, g_unit.x_u, g_unit.x_v)
        np.testing.assert_array_equal(ha.data, hb.data)


class TestHeads:
    def test_identity_weights_pass_nonnegative_input(self):
        rng = np.random.default_rng(5)
        heads = online_params(rng, output_dim=3, hidden_dim=3)
        for prefix in ("heads.projector_u", "heads.predictor_u"):
            heads[f"{prefix}.layer1.weight"].data[...] = np.eye(3)
            heads[f"{prefix}.layer2.weight"].data[...] = np.eye(3)
            heads[f"{prefix}.layer1.bias"].data[:] = 0
            heads[f"{prefix}.layer2.bias"].data[:] = 0
        h = np.abs(rng.normal(size=(6, 3)))
        z_u = mlp_forward(heads, "heads.projector_u", Tensor(h))
        np.testing.assert_allclose(z_u.data, h, atol=1e-15)
        p_u = mlp_forward(heads, "heads.predictor_u", Tensor(h))
        np.testing.assert_allclose(p_u.data, h, atol=1e-15)

    def test_zero_input_zero_bias_zero_output(self):
        rng = np.random.default_rng(6)
        heads = online_params(rng, output_dim=4, hidden_dim=5)
        for prefix in ("heads.projector_u", "heads.predictor_u"):
            z = mlp_forward(heads, prefix, Tensor(np.zeros((3, 4))))
            np.testing.assert_array_equal(z.data, np.zeros((3, 4)))

    def test_random_heads_match_dense_oracle(self):
        rng = np.random.default_rng(7)
        heads = online_params(rng, output_dim=5, hidden_dim=6)
        h_u = rng.normal(size=(8, 5))
        z_u = mlp_forward(heads, "heads.projector_u", Tensor(h_u))
        p_u = mlp_forward(heads, "heads.predictor_u", z_u)
        assert np.max(np.abs(z_u.data - dense_mlp(h_u, heads, "heads.projector_u"))) < 1e-10
        assert np.max(np.abs(p_u.data - dense_mlp(z_u.data, heads, "heads.predictor_u"))) < 1e-10


class TestEma:
    def _state(self):
        rng = np.random.default_rng(8)
        return init_model_state(rng, 3, 4, input_dim=5, hidden_dim=6, output_dim=4)

    def _perturb_online(self, state, rng):
        for p in state.online.values():
            p.data += rng.normal(size=p.data.shape)

    def test_tau_one_freezes_target(self):
        state = self._state()
        self._perturb_online(state, np.random.default_rng(9))
        before = {k: v.data.copy() for k, v in state.target.items()}
        ema_update(state, 1.0)
        for k, v in state.target.items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_tau_zero_copies_online(self):
        state = self._state()
        self._perturb_online(state, np.random.default_rng(10))
        ema_update(state, 0.0)
        for k, v in state.target.items():
            np.testing.assert_array_equal(v.data, state.online[k].data)

    def test_tau_099_arithmetic(self):
        state = self._state()
        for p in state.online.values():
            p.data[:] = 0.0
        for p in state.target.values():
            p.data[:] = 1.0
        ema_update(state, 0.99)
        for p in state.target.values():
            np.testing.assert_allclose(p.data, np.full_like(p.data, 0.99))

    def test_affine_composition_tau_squared(self):
        """Two EMA steps at fixed online params shrink (target - online) by
        tau^2, same as one step with tau^2."""
        tau = 0.9
        state_a = self._state()
        state_b = self._state()
        rng = np.random.default_rng(11)
        self._perturb_online(state_a, rng)
        rng = np.random.default_rng(11)
        self._perturb_online(state_b, rng)

        ema_update(state_a, tau)
        ema_update(state_a, tau)
        ema_update(state_b, tau * tau)
        for k, t in state_a.target.items():
            np.testing.assert_allclose(t.data, state_b.target[k].data, atol=1e-12)

    def test_covers_encoder_only(self):
        state = self._state()
        state.online["encoder.conv2"].data[:] = 2.0
        state.target["encoder.conv2"].data[:] = 0.0
        online_before = state.online.flat.copy()
        ema_update(state, 0.5)
        np.testing.assert_allclose(state.target["encoder.conv2"].data, 1.0)
        np.testing.assert_array_equal(state.online.flat, online_before)
        assert "encoder.unk_u" not in state.target
        assert not any(name.startswith("heads.") for name in state.target)


class TestDecoder:
    def test_zero_params_give_logit_zero(self):
        rng = np.random.default_rng(12)
        dec = init_decoder(rng, embed_dim=4, hidden_dims=(5, 3))
        dec.flat[:] = 0
        emb_u = rng.normal(size=(3, 4))
        emb_v = rng.normal(size=(3, 4))
        logits = decode_logits(dec, emb_u, emb_v, np.array([[0, 1], [2, 2]]))
        np.testing.assert_array_equal(logits.data, np.zeros((2, 1)))
        probs = ad.sigmoid(logits).data
        np.testing.assert_allclose(probs, 0.5)

    def test_concatenation_order_matters(self):
        rng = np.random.default_rng(13)
        dec = init_decoder(rng, embed_dim=4, hidden_dims=(6, 3))
        emb = rng.normal(size=(5, 4))
        forward = decode_logits(dec, emb, emb, np.array([[0, 1]])).item()
        swapped = decode_logits(dec, emb, emb, np.array([[1, 0]])).item()
        assert forward != pytest.approx(swapped)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        dec = init_decoder(rng, embed_dim=3, hidden_dims=(4, 2))
        emb_u = rng.normal(size=(6, 3))
        emb_v = rng.normal(size=(7, 3))
        pairs = np.array([[0, 0], [5, 6], [2, 3]])
        logits = decode_logits(dec, emb_u, emb_v, pairs)
        h = np.hstack([emb_u[pairs[:, 0]], emb_v[pairs[:, 1]]])
        for i in (1, 2, 3):
            h = h @ dec[f"decoder.layer{i}.weight"].data + dec[f"decoder.layer{i}.bias"].data
            if i < 3:
                h = np.maximum(h, 0.0)
        assert np.max(np.abs(logits.data - h)) < 1e-10

    def test_out_of_range_pair_rejected(self):
        rng = np.random.default_rng(15)
        dec = init_decoder(rng, embed_dim=3, hidden_dims=(4, 2))
        emb = rng.normal(size=(3, 3))
        with pytest.raises(ValueError, match="out of range"):
            decode_logits(dec, emb, emb, np.array([[0, 3]]))
        with pytest.raises(ValueError, match="out of range"):
            decode_logits(dec, emb, emb, np.array([[-1, 0]]))

    @pytest.mark.parametrize("pairs", [[0, 1], [[0, 1, 2]]], ids=["1-D", "three-columns"])
    def test_pairs_not_n_by_2_rejected(self, pairs):
        rng = np.random.default_rng(15)
        dec = init_decoder(rng, embed_dim=3, hidden_dims=(4, 2))
        emb = rng.normal(size=(3, 3))
        with pytest.raises(ValueError, match=r"pairs must be \(n, 2\)"):
            decode_logits(dec, emb, emb, pairs)


class TestGradientIsolation:
    def test_target_params_never_in_gradient_map(self):
        rng = np.random.default_rng(16)
        state = init_model_state(rng, 3, 3, input_dim=4, hidden_dim=5,
                                 output_dim=3)
        g = make_graph(4, 5, [(i % 4, i % 5, 1.0, i) for i in range(10)],
                       d_u=3, d_v=3)
        adj = build_weighted_adjacency(g, use_weights=True)
        with Tape():
            h_u = encode(state.online, adj, g.x_u, g.x_v, slice(0, 4))
            h_v = encode(state.online, adj, g.x_u, g.x_v, slice(4, None))
            t_u = encode(state.target, adj, g.x_u, g.x_v, slice(0, 4))
            t_v = encode(state.target, adj, g.x_u, g.x_v, slice(4, None))
            z_u = mlp_forward(state.online, "heads.projector_u", h_u)
            loss = ad.add(ad.sum_all(ad.mul(z_u, t_u)), ad.sum_all(ad.mul(h_v, t_v)))
            backward(loss)
        assert state.target.grad is None
        assert all(t.grad is None for t in state.target.values())
        assert state.online.grad.any()

    def test_checksum_stable_and_sensitive(self):
        rng = np.random.default_rng(17)
        state = init_model_state(rng, 3, 3, input_dim=4, hidden_dim=5,
                                 output_dim=3)
        a = state_checksum(state)
        assert a == state_checksum(state)
        state.online["encoder.conv1"].data[0, 0] += 1e-12
        assert a != state_checksum(state)


class TestParamStore:
    def _state(self):
        return init_model_state(np.random.default_rng(18), 3, 4, input_dim=5,
                                hidden_dim=6, output_dim=4)

    def test_target_is_an_equal_detached_copy(self):
        """The target copies the online encoder, which leads the online buffer."""
        state = self._state()
        assert list(state.target) == list(encoder_shapes(3, 4, 5, 6, 4))
        assert list(state.online) == list(model_shapes(3, 4, 5, 6, 4))
        assert list(state.online)[:len(state.target)] == list(state.target)
        np.testing.assert_array_equal(state.target.flat,
                                      state.online.flat[:state.target.flat.size])
        assert not np.shares_memory(state.target.flat, state.online.flat)
        assert all(p.requires_grad for p in state.online.values())
        assert not any(p.requires_grad for p in state.target.values())

    def test_views_stay_in_buffer_after_adam_and_ema(self):
        state = self._state()
        rng = np.random.default_rng(19)
        opt = init_adam_state(state.online)
        state.online.grad[...] = rng.normal(size=state.online.grad.shape)
        before = [(name, p, p.data.copy()) for store in (state.online, state.target)
                  for name, p in store.items()]
        adam_step(state.online, opt, lr=0.1, weight_decay=1e-3)
        ema_update(state, 0.9)
        assert_in_buffer(state.online)
        assert_in_buffer(state.target)
        # every parameter moved, through its view of the buffer
        for name, p, old in before:
            assert not np.array_equal(p.data, old), name

    def test_store_sizes_at_defaults(self):
        """Default dims (256/256/128) with 12-wide features: the online store
        holds only what the objective trains, the target only the encoder."""
        state = init_model_state(np.random.default_rng(0), 12, 12, input_dim=256,
                                 hidden_dim=256, output_dim=128)
        assert state.online.flat.size == 236_930
        assert state.target.flat.size == 104_960
        v1 = model_shapes(12, 12, 256, 256, 128, sides=("u", "v"))
        assert sum(int(np.prod(shape)) for shape in v1.values()) == 368_900
