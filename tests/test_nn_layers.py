"""Module system: registration, train/eval modes, state dicts, layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MLP, Dropout, Linear, Module, Tensor
from repro.nn.tensor import Parameter


class TestModuleRegistration:
    def test_parameters_found_recursively(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 3, rng=0)
                self.fc2 = Linear(3, 2, rng=1)

        net = Net()
        names = dict(net.named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}
        assert len(list(net.parameters())) == 4

    def test_shared_parameter_deduplicated(self):
        shared = Parameter(np.zeros((2, 2)), name="shared")

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = shared
                self.b = shared

        assert len(list(Net().parameters())) == 1

    def test_register_module_for_lists(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layers = []
                for i in range(3):
                    layer = Linear(2, 2, rng=i)
                    self.register_module(f"layer{i}", layer)
                    self.layers.append(layer)

        assert len(list(Net().parameters())) == 6

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2, rng=0)
                self.drop = Dropout(0.5, rng=0)

        net = Net()
        assert len(list(net.modules())) == 3
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self):
        layer = Linear(3, 2, rng=0)
        out = layer(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_num_parameters(self):
        layer = Linear(3, 2, rng=0)
        assert layer.num_parameters() == 3 * 2 + 2


class TestStateDict:
    def test_round_trip(self):
        a = MLP([4, 8, 2], rng=0)
        b = MLP([4, 8, 2], rng=99)
        state = a.state_dict()
        b.load_state_dict(state)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_copies(self):
        layer = Linear(2, 2, rng=0)
        state = layer.state_dict()
        state["weight"][...] = 0.0
        assert not np.allclose(layer.weight.data, 0.0)

    def test_missing_key_raises(self):
        layer = Linear(2, 2, rng=0)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((2, 2))})

    def test_shape_mismatch_raises(self):
        layer = Linear(2, 2, rng=0)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_grown_sparse_parameter_accepts_prefix(self):
        class Table(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(
                    np.random.default_rng(0).normal(size=(4, 3)),
                    name="weight", sparse=True)

        table = Table()
        state = table.state_dict()
        table.weight.data = np.vstack([table.weight.data, np.zeros((2, 3))])
        table.load_state_dict(state)  # prefix restore must not raise
        np.testing.assert_allclose(table.weight.data[:4], state["weight"])


class TestLinearAndMLP:
    def test_linear_shapes(self):
        layer = Linear(5, 3, rng=0)
        out = layer(Tensor(np.zeros((7, 5))))
        assert out.shape == (7, 3)

    def test_linear_no_bias(self):
        layer = Linear(5, 3, bias=False, rng=0)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_mlp_forward_shape(self):
        mlp = MLP([6, 12, 4], activation="relu", rng=0)
        out = mlp(Tensor(np.zeros((2, 6))))
        assert out.shape == (2, 4)

    def test_mlp_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_mlp_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP([4, 2], activation="swish")

    def test_mlp_last_layer_linear_by_default(self):
        mlp = MLP([2, 4, 2], activation="tanh", rng=0)
        big = Tensor(np.full((1, 2), 100.0))
        out = mlp(big)
        # tanh saturates at 1; a linear last layer can exceed it
        assert np.abs(out.data).max() != pytest.approx(1.0)

    def test_mlp_activate_last(self):
        mlp = MLP([2, 2], activation="tanh", activate_last=True, rng=0)
        out = mlp(Tensor(np.full((1, 2), 100.0)))
        assert np.all(np.abs(out.data) <= 1.0)


class TestDropoutLayer:
    def test_eval_mode_identity(self):
        drop = Dropout(0.9, rng=0)
        drop.eval()
        x = Tensor(np.ones((5, 5)))
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.5)

    def test_training_mode_drops(self):
        drop = Dropout(0.5, rng=0)
        out = drop(Tensor(np.ones((100, 10))))
        assert (out.data == 0).any()
