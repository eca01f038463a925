"""Model files: what a saved and reloaded model predicts, and what cannot be saved."""

import numpy as np
import pytest

from oracles import categorical_encoder, random_dataset
from smlbayes import (
    DiagnosticClassifier,
    MixtureClassifier,
    PriorSpec,
    build_count_table,
    build_omi,
    load_model,
    save_model,
)
from smlbayes.model_io import model_to_json_dict


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


def test_mixture_with_different_component_priors_is_not_saved():
    rng = np.random.default_rng(4)
    data = random_dataset(rng, 20, (2, 2), 2)
    components = (
        DiagnosticClassifier(build_count_table(data, (0,)), PriorSpec.uniform_cell(1.0)),
        DiagnosticClassifier(build_count_table(data, (1,)), PriorSpec.uniform_cell(2.0)),
    )
    model = MixtureClassifier(components, np.log([0.5, 0.5]))
    with pytest.raises(ValueError, match="different priors"):
        model_to_json_dict(model, categorical_encoder(data.schema))


def test_mixture_with_weights_other_than_its_sml_weights_is_not_saved():
    rng = np.random.default_rng(5)
    data = random_dataset(rng, 20, (2, 2), 2)
    components = tuple(
        DiagnosticClassifier(build_count_table(data, (i,)), PriorSpec.uniform_cell(1.0)) for i in (0, 1)
    )
    model = MixtureClassifier(components, np.log([0.75, 0.25]))
    with pytest.raises(ValueError, match="weights differ"):
        model_to_json_dict(model, categorical_encoder(data.schema))
