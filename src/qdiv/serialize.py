"""JSON wire formats for states, tangents, and reverse tests.

Complex entries are encoded as [re, im] pairs; matrices as row-major nested
lists. Parsers re-validate every invariant and report residuals on rejection.
"""

import json

import numpy as np

from .errors import ValidationError
from .states import DensityMatrix


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


def _matrix_field(data, what: str) -> np.ndarray:
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValidationError(f'malformed {what}: expected a JSON object with a "matrix" field')
    return _matrix_from_json(data["matrix"], f"{what} matrix")


def state_from_dict(data: dict) -> DensityMatrix:
    m = _matrix_field(data, "state")
    dim = data.get("dim", len(m))
    if m.shape != (dim, dim):
        raise ValidationError(f"declared dim {dim!r} does not match matrix shape {m.shape}")
    return DensityMatrix(m)


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
        return _matrix_field(json.load(fh), "tangent")


def dump(obj: dict, path: str) -> None:
    """Write obj as compact, key-sorted JSON on one line and a newline, in one
    write: json.dump would write each chunk of the encoding separately, and
    any indent would take json's pure-Python encoder."""
    text = json.dumps(obj, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
