"""Catalog substrate: schemas, statistics, selectivity estimation (S1)."""

from repro.catalog.catalog import Catalog, CatalogSnapshot, TableEntry
from repro.catalog.persistence import load_catalog, save_catalog
from repro.catalog.schema import Column, ColumnType, Schema
from repro.catalog.selectivity import SelectivityDefaults, SelectivityEstimator
from repro.catalog.statistics import (
    DEFAULT_PAGE_SIZE,
    ColumnStatistics,
    TableStatistics,
)

__all__ = [
    "Catalog",
    "CatalogSnapshot",
    "load_catalog",
    "save_catalog",
    "TableEntry",
    "Column",
    "ColumnType",
    "Schema",
    "SelectivityDefaults",
    "SelectivityEstimator",
    "ColumnStatistics",
    "TableStatistics",
    "DEFAULT_PAGE_SIZE",
]
