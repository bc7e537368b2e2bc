import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from zeroshap import postprocess as pp
from zeroshap.metrics import pearson

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def matrices(min_rows=2, max_rows=12, min_cols=1, max_cols=6):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)),
        elements=finite,
    )


def test_recenter_examples():
    out = pp.recenter(np.array([[1.0, 3.0], [2.0, 2.0]]))
    np.testing.assert_allclose(out, [[-1.0, 1.0], [0.0, 0.0]], atol=1e-12)
    np.testing.assert_array_equal(pp.recenter(np.full((3, 2), 5.0)), 0.0)


def test_recenter_idempotent_on_zero_mean():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(6, 3))
    phi -= phi.mean()
    np.testing.assert_allclose(pp.recenter(phi), phi, atol=1e-12)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_recenter_zero_global_mean(phi):
    assert abs(pp.recenter(phi).mean()) < 1e-12


def test_rescale_factor_example():
    rng = np.random.default_rng(1)
    phi = rng.normal(size=(50, 4))
    phi = phi / phi.std() * 0.5  # Std(phi) = 0.5
    y = rng.normal(size=50)
    y = (y - y.mean()) / y.std()  # Std(y) = 1
    out = pp.rescale(phi, y)
    # factor (1 / sqrt(4)) / 0.5 = 1: unchanged
    np.testing.assert_allclose(out, phi, atol=1e-12)


def test_rescale_absorbs_input_scale():
    rng = np.random.default_rng(2)
    phi = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    np.testing.assert_allclose(pp.rescale(2.0 * phi, y), pp.rescale(phi, y), atol=1e-12)


def test_rescale_hits_target_std():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(30, 5))
    y = rng.uniform(0, 1, size=30)
    out = pp.rescale(phi, y)
    assert out.std() == pytest.approx(y.std() / np.sqrt(5), abs=1e-12)


def test_rescale_constant_predictions_warns():
    with pytest.warns(UserWarning, match="constant predictions"):
        out = pp.rescale(np.ones((4, 2)), np.full(4, 0.3))
    np.testing.assert_array_equal(out, 0.0)


def test_rescale_constant_attributions_warns():
    with pytest.warns(UserWarning, match="skipping"):
        out = pp.rescale(np.full((4, 2), 1.5), np.arange(4.0))
    np.testing.assert_array_equal(out, 1.5)


def test_efficiency_correct_example():
    phi = np.array([[0.05, 0.05, 0.1]])  # row sum 0.2
    y = np.array([0.8])
    out = pp.efficiency_correct(phi, y, base_value=0.5)
    np.testing.assert_allclose(out, phi + 0.1 / 3, atol=1e-12)


def test_efficiency_correct_fixed_point():
    rng = np.random.default_rng(4)
    phi = rng.normal(size=(5, 3))
    v = 0.4
    y = v + phi.sum(axis=1)
    np.testing.assert_allclose(pp.efficiency_correct(phi, y, base_value=v), phi, atol=1e-12)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_efficiency_correct_exact_residuals(phi):
    rng = np.random.default_rng(0)
    y = rng.normal(size=phi.shape[0])
    out = pp.efficiency_correct(phi, y)
    v = y.mean()
    residual = np.abs(y - v - out.sum(axis=1)).max()
    assert residual < 1e-12


def test_full_pipeline_fixed_point():
    rng = np.random.default_rng(6)
    n, m = 40, 4
    y = rng.uniform(0, 1, size=n)
    # build an input already satisfying all three constraints
    phi = rng.normal(size=(n, m))
    phi = pp.recenter(phi)
    phi = pp.rescale(phi, y)
    phi = pp.efficiency_correct(phi, y)
    # the efficiency step disturbs mean/std slightly; iterate to a joint fixed point
    for _ in range(200):
        phi = pp.efficiency_correct(pp.rescale(pp.recenter(phi), y), y)
    out = pp.full_pipeline(phi, y)
    np.testing.assert_allclose(out, phi, atol=1e-9)


def test_full_pipeline_properties_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(1, 6))
        phi = rng.normal(size=(n, m)) * rng.uniform(0.1, 5)
        y = rng.uniform(0, 1, size=n)
        out = pp.full_pipeline(phi, y)
        v = y.mean()
        assert np.abs(y - v - out.sum(axis=1)).max() < 1e-12
        partial = pp.rescale(pp.recenter(phi), y)
        assert abs(partial.mean()) < 1e-12
        assert partial.std() == pytest.approx(y.std() / np.sqrt(m), abs=1e-9)


def test_statistical_steps_preserve_pearson():
    rng = np.random.default_rng(8)
    phi = rng.normal(size=(30, 3))
    ref = rng.normal(size=(30, 3))
    y = rng.uniform(0, 1, size=30)
    base = pearson(phi, ref)
    partial = pp.rescale(pp.recenter(phi), y)
    assert pearson(partial, ref) == pytest.approx(base, abs=1e-12)


def test_full_pipeline_reads_f_ordered_input_as_its_c_order_copy():
    # the explainer's output is F-ordered when X comes from fancy-indexed columns
    rng = np.random.default_rng(8)
    phi = np.asfortranarray(rng.normal(size=(300, 7)))
    y = rng.uniform(0, 1, size=300)
    np.testing.assert_array_equal(pp.full_pipeline(phi, y), pp.full_pipeline(np.ascontiguousarray(phi), y))


def test_correction_ablation_variants_compose_the_library_steps():
    path = Path(__file__).resolve().parents[1] / "scripts" / "correction_ablation.py"
    spec = importlib.util.spec_from_file_location("correction_ablation", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(30, 4))
    y = rng.uniform(0, 1, size=30)
    statistical = pp.rescale(pp.recenter(phi), y)
    expected = {
        "raw": phi,
        "efficiency_only": pp.efficiency_correct(phi, y),
        "statistical_only": statistical,
        "full": pp.efficiency_correct(statistical, y),
    }
    assert list(script.VARIANTS) == list(expected)
    for name, correct in script.VARIANTS.items():
        np.testing.assert_array_equal(correct(phi, y), expected[name], err_msg=name)
