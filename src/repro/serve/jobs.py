"""The name the benchmark harness imports for a job spec.

A job spec is a :class:`repro.runspec.RunSpec` posted as JSON; its parser,
rules and content key live there.  ``JobSpec`` is that same class under
the name ``perfbench/`` still imports.
"""

from repro.runspec import RunSpec as JobSpec

__all__ = ["JobSpec"]
