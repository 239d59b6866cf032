import os
import sys

import pytest

from qdiv.states import DensityMatrix

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def validated_dims(monkeypatch):
    """The dimension of each DensityMatrix validated during the test, in
    order: a tensor power is built as a validated state of dimension d^n."""
    dims = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        dims.append(len(self.matrix))
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    return dims
