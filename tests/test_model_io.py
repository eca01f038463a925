"""Model files: what a saved and reloaded model predicts."""

import numpy as np

from oracles import categorical_encoder, random_dataset
from smlbayes import PriorSpec, build_omi, load_model, save_model
from smlbayes.model_io import model_from_json_dict, model_to_json_dict


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


def test_om1_trained_on_no_rows_reloads():
    data = random_dataset(np.random.default_rng(0), 0, (3, 2), 2)
    model = build_omi(data, 1, PriorSpec.uniform_cell(1.0))
    loaded, _ = model_from_json_dict(model_to_json_dict(model, categorical_encoder(data.schema)))
    assert all(t.n_rows == 0 and len(t.config_array) == 0 for t in loaded.tables)
    for x in [[0, 1], [2, 0], [3, -1]]:
        assert (loaded.predict(x) == [0.5, 0.5]).all()
