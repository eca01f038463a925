"""Model files: what a saved and reloaded model predicts."""

import json

import numpy as np

from oracles import categorical_encoder, random_dataset
from smlbayes import CountTable, MixtureClassifier, PriorSpec, build_nb, build_omi, load_model, save_model
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


def test_integer_strength_and_log_q_save_and_load(tmp_path):
    # a library model may be built with an int strength or log q; each is held
    # as a float, so the file it saves is in the one form a file loads in
    data = random_dataset(np.random.default_rng(5), 40, (3, 2), 2)
    table = CountTable((), [()], [[3, 1]], 4, 2, 1, 0)
    models = [build_nb(data, PriorSpec("uniform_cell", 1)), MixtureClassifier((table,), PriorSpec.uniform_cell(1.0))]
    for i, model in enumerate(models):
        path = tmp_path / f"{i}.json"
        save_model(model, categorical_encoder(data.schema), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        held = [payload["prior"]["strength"]]
        if payload["kind"] == "mixture":
            held += [t["log_q"] for t in payload["tables"]]
        assert all(type(v) is float for v in held)
        loaded, _ = load_model(path)
        for x in [[0, 1], [2, 0], [3, -1]]:
            assert (loaded.predict(x) == model.predict(x)).all()
