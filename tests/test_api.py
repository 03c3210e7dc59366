import importlib

import tailgauge


def test_public_names_resolve_once():
    names = tailgauge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tailgauge, n)] == []


def test_estimator_law_is_exported():
    assert "EstimatorLaw" in tailgauge.__all__
    density = importlib.import_module("tailgauge.density")
    assert tailgauge.EstimatorLaw is density.EstimatorLaw
