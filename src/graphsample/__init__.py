"""Graph sampling algorithms, graph properties, and a benchmark harness."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    LoadStats,
    build_graph,
    dump_edge_list,
    induced_subgraph,
    largest_connected_component,
    load_edge_list,
)
from .generators import GeneratorConfig, generate
from .samplers import Sample, SamplerConfig, finalize, node_budget, sample, sample_subgraph
from .properties import Distribution, PropertyReport, property_report
from .community import detect_communities, modularity
from .metrics import confidence_interval_95, jsd, rmse, scaling_ratio
from .harness import DatasetSpec, ExperimentConfig, aggregate, run_experiment

__all__ = [
    "DatasetSpec",
    "Distribution",
    "ExperimentConfig",
    "GeneratorConfig",
    "Graph",
    "LoadStats",
    "PropertyReport",
    "Sample",
    "SamplerConfig",
    "aggregate",
    "build_graph",
    "confidence_interval_95",
    "detect_communities",
    "dump_edge_list",
    "finalize",
    "generate",
    "induced_subgraph",
    "jsd",
    "largest_connected_component",
    "load_edge_list",
    "modularity",
    "node_budget",
    "property_report",
    "rmse",
    "run_experiment",
    "sample",
    "sample_subgraph",
    "scaling_ratio",
]
