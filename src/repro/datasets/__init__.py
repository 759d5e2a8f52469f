"""Synthetic equivalents of the paper's four evaluation data sets.

Each generator reproduces the statistical property that drives the
corresponding experiments (see docs/paper.md's scale column): NOAA's
smooth drift + single-pixel noise, ConceptNet's sparse churn, OSM's
near-identical weekly map tiles, Switch Panorama's periodic scenes, and
the Section V-D synthetic periodic patterns.
"""

from repro.datasets.conceptnet import (
    ConceptNetGenerator,
    SparseSnapshot,
    conceptnet_series,
)
from repro.datasets.noaa import DEFAULT_MEASUREMENTS, NOAAGenerator, noaa_series
from repro.datasets.osm import OSMGenerator, osm_series
from repro.datasets.panorama import PanoramaGenerator, panorama_series
from repro.datasets.periodic import (
    paper_n2_series,
    paper_n3_series,
    periodic_series,
)

__all__ = [
    "ConceptNetGenerator",
    "DEFAULT_MEASUREMENTS",
    "NOAAGenerator",
    "OSMGenerator",
    "PanoramaGenerator",
    "SparseSnapshot",
    "conceptnet_series",
    "noaa_series",
    "osm_series",
    "panorama_series",
    "paper_n2_series",
    "paper_n3_series",
    "periodic_series",
]
