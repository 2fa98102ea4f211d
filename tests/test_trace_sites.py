"""The traced benchmark run (perfbench/spans.py) times the library by
replacing these names in the modules that import them. Renaming or dropping
one of them breaks that run, so each must stay importable at its site."""
import pytest

from interpnn import cli, estimator, evaluation

IMPORT_SITES = {
    evaluation: ("build_index", "query_batch", "compute_weights_batch", "score_batch", "fit"),
    estimator: ("build_index", "query_batch", "compute_weights_batch"),
    cli: ("main", "load_csv", "split", "standardize_train_test", "run_ratio_experiment",
          "run_attack_experiment", "MODELS"),
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in IMPORT_SITES.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_traced_name_exists(module, name):
    assert hasattr(module, name), f"{module.__name__}.{name} is gone"

