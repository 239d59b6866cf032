"""JSON wire-format round trips and parser validation."""

import json

import numpy as np
import pytest

from qdiv.errors import ValidationError
from qdiv.reverse import optimal_reverse_test, refine_reverse_test
from qdiv.serialize import (channel_from_dict, channel_to_dict,
                            distribution_from_dict, distribution_to_dict,
                            load_hermitian, load_state, reverse_test_to_dict,
                            state_from_dict, state_to_dict, dump)
from qdiv.states import (ClassicalDistribution, random_cptp, random_density)
from qdiv import fixtures


class TestStateFormat:
    def test_roundtrip(self):
        rho = random_density(3, seed=1)
        again = state_from_dict(state_to_dict(rho))
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_schema_shape(self):
        rho = random_density(2, seed=2)
        data = state_to_dict(rho)
        assert data["dim"] == 2
        assert len(data["matrix"]) == 2
        assert len(data["matrix"][0][0]) == 2  # [re, im]

    def test_rejects_bad_trace_with_residual(self):
        data = {"dim": 2, "matrix": [[[0.8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]]}
        with pytest.raises(ValidationError, match="trace"):
            state_from_dict(data)

    def test_rejects_dim_mismatch(self):
        rho = random_density(2, seed=3)
        data = state_to_dict(rho)
        for dim in (3, [2]):
            data["dim"] = dim
            with pytest.raises(ValidationError, match="dim"):
                state_from_dict(data)

    @pytest.mark.parametrize("data", [{"dim": 2}, [1, 2]])
    def test_rejects_file_without_matrix(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for load in (load_state, load_hermitian):
            with pytest.raises(ValidationError, match="matrix"):
                load(str(path))

    def test_rejects_non_hermitian(self):
        data = {"dim": 2, "matrix": [[[0.5, 0.0], [0.4, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        with pytest.raises((ValidationError, ValueError), match="Hermitian"):
            state_from_dict(data)

    def test_file_roundtrip(self, tmp_path):
        rho = random_density(2, seed=4)
        path = tmp_path / "state.json"
        dump(state_to_dict(rho), str(path))
        again = load_state(str(path))
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)


class TestChannelFormat:
    def test_roundtrip(self):
        ch = random_cptp(2, 3, kraus_count=2, seed=5)
        again = channel_from_dict(channel_to_dict(ch))
        assert again.dim_in == 2 and again.dim_out == 3
        for a, b in zip(again.kraus, ch.kraus):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_rejects_incomplete_kraus(self):
        data = {"kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}
        with pytest.raises(ValidationError, match="residual"):
            channel_from_dict(data)

    def test_rejects_declared_dim_mismatch(self):
        ch = random_cptp(2, 2, seed=6)
        data = channel_to_dict(ch)
        data["dim_in"] = 5
        with pytest.raises(ValidationError, match="dim_in"):
            channel_from_dict(data)


class TestDistributionFormat:
    def test_roundtrip(self):
        p = ClassicalDistribution(np.array([0.25, 0.75]))
        again = distribution_from_dict(distribution_to_dict(p))
        np.testing.assert_allclose(again.probs, p.probs)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            distribution_from_dict({"probs": [0.5, 0.6]})


class TestReverseTestFormat:
    def test_schema(self):
        rho, sigma = fixtures.QUBIT_A
        rt = optimal_reverse_test(rho, sigma)
        data = reverse_test_to_dict(rt)
        assert set(data) == {"frame", "p", "q", "input_kl"}
        assert len(data["frame"]) == len(data["p"]) == len(data["q"]) == 2
        assert json.loads(json.dumps(data)) == data
        # frame vectors reconstruct the committed weights
        frame = np.array([[complex(re, im) for re, im in vec] for vec in data["frame"]]).T
        rec = (frame * np.array(data["p"])) @ frame.conj().T
        np.testing.assert_allclose(rec, rho.matrix, atol=1e-9)

    def test_refined_test_has_one_frame_vector_per_symbol(self):
        rho, sigma = fixtures.QUBIT_A
        data = reverse_test_to_dict(refine_reverse_test(optimal_reverse_test(rho, sigma), splits=3))
        assert len(data["frame"]) == len(data["p"]) == len(data["q"]) == 6
        frame = np.array([[complex(re, im) for re, im in vec] for vec in data["frame"]]).T
        rec = (frame * np.array(data["p"])) @ frame.conj().T
        np.testing.assert_allclose(rec, rho.matrix, atol=1e-9)
