"""Model files: what a saved and reloaded model predicts."""

import numpy as np

from oracles import categorical_encoder, random_dataset
from smlbayes import PriorSpec, build_omi, load_model, save_model


def test_om2_reloads_with_identical_predictions(tmp_path):
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 200, (3, 3, 2, 3, 2), 3)
    model = build_omi(data, 2, PriorSpec.equivalent_sample_size(2.0))
    path = tmp_path / "om2.json"
    save_model(model, categorical_encoder(data.schema), path)
    loaded, _ = load_model(path)
    assert (loaded.log_weights == model.log_weights).all()
    for x in [[0, 1, 1, 2, 0], [2, 2, 0, 0, 1], [3, 0, 2, -1, 1]]:
        assert (loaded.predict(x) == model.predict(x)).all()
