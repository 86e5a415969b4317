"""Static analysis for the determinism contract (``repro lint``).

The headline guarantee of this codebase — every RR set is a pure
function of ``(seed, ad, set_index)``, byte-identical across
serial/process/dist, any worker count, cold or cached
(``docs/architecture.md``) — is enforced here as *machine-checked
policy*, not convention:

* a small AST rule framework (:mod:`repro.analysis.rules`) with
  per-rule ``REPRO1xx`` codes, ``# reprolint: disable=CODE`` inline
  suppressions (:mod:`repro.analysis.suppressions`), and a config
  declaring the sanctioned RNG seams and hot-path modules
  (:mod:`repro.analysis.config`);
* the shipped rule set: R101 RNG discipline, R102 nondeterministic seed
  sources, R103 unordered hot-path iteration, R104 file-handle and
  socket hygiene, R105 pool-buffer encapsulation — see the "Enforced
  invariants" table in ``docs/architecture.md``;
* entry points: ``repro lint [paths]`` and ``python -m repro.analysis``
  (exit 0 clean / 1 findings / 2 usage errors).

The *runtime* half of the same posture — the determinism sanitizer that
digests sampled chunks and pinpoints the first divergent ``(ad, chunk)``
— lives with the engine in :mod:`repro.rrset.dsan`.
"""

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig, module_key
from repro.analysis.findings import Finding, format_report
from repro.analysis.linter import (
    PARSE_ERROR_CODE,
    iter_python_files,
    lint_file,
    lint_paths,
    main,
    run,
)
from repro.analysis.rules import ALL_RULES, Rule, default_rules, rules_by_code
from repro.analysis.suppressions import is_suppressed, line_suppressions

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "DEFAULT_CONFIG",
    "Finding",
    "PARSE_ERROR_CODE",
    "Rule",
    "default_rules",
    "format_report",
    "is_suppressed",
    "iter_python_files",
    "line_suppressions",
    "lint_file",
    "lint_paths",
    "main",
    "module_key",
    "rules_by_code",
    "run",
]
