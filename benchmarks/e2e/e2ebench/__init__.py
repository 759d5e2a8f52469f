"""The end-to-end, layer-attributed benchmark of the versioned-array
store (see ``benchmarks/e2e/README.md`` for the metric contract)."""
