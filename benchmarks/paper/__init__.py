"""The paper reproduction: one experiment module per table or figure.

A client of the store, not part of it: nothing under ``src/`` imports
this package.  Each module's ``run()`` prints a paper-shaped table and
returns its rows as data; the ``benchmarks/bench_*.py`` drivers wrap
them with pytest-benchmark.  ``docs/paper.md`` maps every paper
section, table and figure to its module, driver and scale.
"""
