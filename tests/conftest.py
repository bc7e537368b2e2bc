import numpy as np
import pytest

from zeroshap import autodiff as ad
from zeroshap import base_models as bm


def random_mlp(m, seed, hidden=16):
    """Untrained MLP with random weights; cheap nonlinear predictor for tests."""
    rng = np.random.default_rng(seed)
    return bm.MlpModel(
        weights=[rng.normal(0, 0.8, size=(m, hidden)), rng.normal(0, 0.8, size=(hidden, 1))],
        biases=[rng.normal(0, 0.3, size=hidden), rng.normal(0, 0.3, size=1)],
    )


@pytest.fixture
def tensor_inits(monkeypatch):
    """The arguments of every ``autodiff.Tensor`` constructed while the test runs."""
    created = []
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    return created
