"""DistanceRegressor: prediction quality, attack surfaces, zoo caching."""

import os

import numpy as np
import pytest

from repro.data.driving import MAX_DISTANCE, render_frame
from repro.models import DistanceRegressor
from repro.nn import Tensor


class TestForward:
    def test_output_shape(self):
        model = DistanceRegressor(rng=np.random.default_rng(0))
        out = model(Tensor(np.zeros((3, 3, 64, 128), dtype=np.float32)))
        assert out.shape == (3, 1)

    def test_predict_returns_metres(self):
        model = DistanceRegressor(rng=np.random.default_rng(0))
        preds = model.predict(np.zeros((2, 3, 64, 128), dtype=np.float32))
        assert preds.shape == (2,)

    def test_attack_loss_inflate_is_mean_prediction(self):
        model = DistanceRegressor(rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(0).random((2, 3, 64, 128)).astype(np.float32))
        inflate = model.attack_loss(x, np.array([10.0, 20.0]))
        assert inflate.item() == pytest.approx(model(x).data.mean(), rel=1e-5)

    def test_attack_loss_bad_mode(self):
        model = DistanceRegressor(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.attack_loss(Tensor(np.zeros((1, 3, 64, 128))),
                              np.array([10.0]), mode="bogus")


class TestTrainedRegressorQuality:
    def test_monotonic_in_distance(self, regressor):
        """Farther lead -> larger predicted distance, on average."""
        rng = np.random.default_rng(5)
        frames, truths = [], []
        for d in (5, 15, 30, 50, 70):
            frames.append(render_frame(float(d), rng).image)
            truths.append(d)
        preds = regressor.predict(np.stack(frames))
        assert list(np.argsort(preds)) == list(range(len(truths)))

    def test_close_range_error_small(self, regressor):
        rng = np.random.default_rng(6)
        frames = np.stack([render_frame(float(d), rng).image
                           for d in np.linspace(5, 19, 12)])
        preds = regressor.predict(frames)
        errors = np.abs(preds - np.linspace(5, 19, 12))
        assert errors.mean() < 3.0

    def test_empty_road_predicts_far(self, regressor):
        rng = np.random.default_rng(7)
        frames = np.stack([render_frame(None, rng).image for _ in range(5)])
        preds = regressor.predict(frames)
        assert preds.mean() > 0.7 * MAX_DISTANCE

    def test_gradient_wrt_input_nonzero_in_lead_region(self, regressor):
        """The model must actually look at the lead vehicle."""
        from repro.attacks import input_gradient, regressor_loss_fn
        rng = np.random.default_rng(8)
        frame = render_frame(12.0, rng)
        x1, y1, x2, y2 = frame.lead_box
        grad = input_gradient(frame.image[None],
                              regressor_loss_fn(regressor, np.array([12.0])))
        inside = np.abs(grad[0, :, y1:y2, x1:x2]).mean()
        overall = np.abs(grad[0]).mean()
        assert inside > overall  # saliency concentrated on the lead


class TestZooCaching:
    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.models import zoo
        model_a = zoo.get_regressor(n_frames=20, epochs=1, seed=3)
        model_b = zoo.get_regressor(n_frames=20, epochs=1, seed=3)
        x = np.random.default_rng(0).random((1, 3, 64, 128)).astype(np.float32)
        np.testing.assert_array_equal(model_a.predict(x), model_b.predict(x))
        # exactly one cache file for this config
        files = [f for f in tmp_path.iterdir() if f.name.startswith("regressor")]
        assert len(files) == 1

    def test_different_config_different_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.models import zoo
        zoo.get_regressor(n_frames=20, epochs=1, seed=3)
        zoo.get_regressor(n_frames=24, epochs=1, seed=3)
        files = [f for f in tmp_path.iterdir() if f.name.startswith("regressor")]
        assert len(files) == 2

    def test_default_checkpoint_filenames_are_stable(self, tmp_path,
                                                     monkeypatch):
        # Pinned to the names the zoo has always produced, so existing
        # .cache/*.npz checkpoints keep hitting after a hashing refactor.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.runtime import ResultCache
        names = {
            "regressor": {"seed": 0, "frames": 1500, "epochs": 40, "v": 6},
            "detector": {"seed": 0, "scenes": 1000, "epochs": 50, "v": 6},
        }
        assert {os.path.basename(ResultCache().path(name, config, "npz"))
                for name, config in names.items()} == {
            "regressor-840386f899e0f2a6.npz",
            "detector-8f4fd711641bccfa.npz"}
