"""Design space, evaluation framework, and experiment runner.

``design_space`` has no intra-package dependencies and is imported
eagerly; the evaluation/model-selection/experiment layers import the
GAN package or the :func:`repro.synthesize` facade (which themselves
need ``design_space``), so they load lazily to keep the import graph
acyclic.  Synthesis itself, with validation-based snapshot selection,
is :func:`repro.synthesize`.
"""

from .design_space import (
    DesignConfig, iter_design_space, transformation_grid,
    GENERATORS, TRAININGS,
)

__all__ = [
    "DesignConfig", "iter_design_space", "transformation_grid",
    "GENERATORS", "TRAININGS",
    "ClassificationUtility", "PrivacyReport", "aqp_utility",
    "classifier_f1", "classification_utilities", "classification_utility",
    "clustering_utility", "privacy_report",
    "SearchResult", "hyperparameter_candidates", "random_search",
    "ExperimentContext", "get_context",
    "marginal_distances", "correlation_difference",
    "association_difference", "fidelity_summary",
]

_LAZY = {
    "ClassificationUtility": ("repro.core.evaluation", "ClassificationUtility"),
    "PrivacyReport": ("repro.core.evaluation", "PrivacyReport"),
    "aqp_utility": ("repro.core.evaluation", "aqp_utility"),
    "classifier_f1": ("repro.core.evaluation", "classifier_f1"),
    "classification_utilities": ("repro.core.evaluation",
                                 "classification_utilities"),
    "classification_utility": ("repro.core.evaluation",
                               "classification_utility"),
    "clustering_utility": ("repro.core.evaluation", "clustering_utility"),
    "privacy_report": ("repro.core.evaluation", "privacy_report"),
    "SearchResult": ("repro.core.model_selection", "SearchResult"),
    "hyperparameter_candidates": ("repro.core.model_selection",
                                  "hyperparameter_candidates"),
    "random_search": ("repro.core.model_selection", "random_search"),
    "ExperimentContext": ("repro.core.experiment", "ExperimentContext"),
    "get_context": ("repro.core.experiment", "get_context"),
    "marginal_distances": ("repro.core.statistics", "marginal_distances"),
    "correlation_difference": ("repro.core.statistics",
                               "correlation_difference"),
    "association_difference": ("repro.core.statistics",
                               "association_difference"),
    "fidelity_summary": ("repro.core.statistics", "fidelity_summary"),
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        value = getattr(importlib.import_module(module_name), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
