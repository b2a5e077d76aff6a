"""Measurement, reporting, and static analysis of task graphs.

Two halves: trace analyses over *executed* graphs (§IV-B granularity and
working-set studies), and static analyses over *declared* graphs and
source text, which need no execution at all — the dependence proof
(:func:`~repro.analysis.verify.verify_build`, the one check of a graph's
``in``/``out``/``inout`` declarations, and the ``repro.cert.v1``
certificate over config families), the parallelism metrics of a declared
graph, and the AST payload lint.  Dependence findings are
:class:`~repro.runtime.racecheck.DependenceFinding` in one
:class:`~repro.runtime.racecheck.DependenceReport`, shared with the
runtime's dynamic instruments.
"""

from repro.analysis.granularity import GranularityStats, granularity_stats
from repro.analysis.memory import WorkingSetStats, working_set_stats
from repro.analysis.parallelism import dataflow_successors, parallelism_metrics
from repro.analysis.pylint import PyLintFinding, lint_file, lint_paths, lint_source
from repro.analysis.report import format_table, speedup
from repro.analysis.verify import (
    CERT_FORMAT,
    Family,
    build_certificate,
    cross_validate,
    full_family_matrix,
    minimality_findings,
    verify_build,
    verify_family,
    verify_mutations,
)

__all__ = [
    "GranularityStats",
    "granularity_stats",
    "WorkingSetStats",
    "working_set_stats",
    "format_table",
    "speedup",
    "dataflow_successors",
    "parallelism_metrics",
    "PyLintFinding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "CERT_FORMAT",
    "Family",
    "build_certificate",
    "cross_validate",
    "full_family_matrix",
    "minimality_findings",
    "verify_build",
    "verify_family",
    "verify_mutations",
]
