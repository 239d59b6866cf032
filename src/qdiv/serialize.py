"""JSON wire formats for states, channels, distributions, and reverse tests.

Complex entries are encoded as [re, im] pairs; matrices as row-major nested
lists. Parsers re-validate every invariant and report residuals on rejection.
"""

import json

import numpy as np

from .errors import ValidationError
from .states import ClassicalDistribution, DensityMatrix, QuantumChannel


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    try:
        arr = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: entries must be [re, im] pairs") from exc
    return arr


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": _matrix_to_json(rho.matrix)}


def state_from_dict(data: dict) -> DensityMatrix:
    m = _matrix_from_json(data["matrix"], "state matrix")
    dim = int(data.get("dim", m.shape[0]))
    if m.shape != (dim, dim):
        raise ValidationError(f"declared dim {dim} does not match matrix shape {m.shape}")
    return DensityMatrix(m)


def channel_to_dict(ch: QuantumChannel) -> dict:
    return {"dim_in": ch.dim_in, "dim_out": ch.dim_out,
            "kraus": [_matrix_to_json(k) for k in ch.kraus]}


def channel_from_dict(data: dict) -> QuantumChannel:
    kraus = tuple(_matrix_from_json(k, "Kraus operator") for k in data["kraus"])
    ch = QuantumChannel(kraus)
    for key, got in (("dim_in", ch.dim_in), ("dim_out", ch.dim_out)):
        if key in data and int(data[key]) != got:
            raise ValidationError(f"declared {key} {data[key]} does not match Kraus shape {got}")
    return ch


def distribution_to_dict(p: ClassicalDistribution) -> dict:
    return {"probs": [float(x) for x in p.probs]}


def distribution_from_dict(data: dict) -> ClassicalDistribution:
    return ClassicalDistribution(np.asarray(data["probs"], dtype=float))


def reverse_test_to_dict(rt) -> dict:
    return {"frame": _matrix_to_json(rt.frame.T),   # one row per frame vector
            "p": [float(v) for v in rt.p.probs],
            "q": [float(v) for v in rt.q.probs],
            "input_kl": float(rt.input_kl)}


def load_state(path: str) -> DensityMatrix:
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def load_hermitian(path: str) -> np.ndarray:
    """Tangent-direction file: same layout as a state, no trace constraint."""
    with open(path) as fh:
        data = json.load(fh)
    return _matrix_from_json(data["matrix"], "tangent matrix")


def dump(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
