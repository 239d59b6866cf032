"""JSON wire-format round trips and parser validation."""

import json

import numpy as np
import pytest

from qdiv.errors import ValidationError
from qdiv.reverse import optimal_reverse_test, refine_reverse_test
from qdiv.serialize import (load_hermitian, load_state, reverse_test_to_dict,
                            state_from_dict, state_to_dict, dump)
from qdiv.states import random_density
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

    def test_dump_writes_the_json_text(self, tmp_path):
        data = {"b": [1.5, float("inf")], "a": {"z": None, "y": "text"}}
        path = tmp_path / "out.json"
        dump(data, str(path))
        assert path.read_text() == '{"a": {"y": "text", "z": null}, "b": [1.5, Infinity]}\n'


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
