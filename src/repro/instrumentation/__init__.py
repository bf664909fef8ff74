"""Automatic "code instrumentation" substrate.

The paper generates approximate versions of an application by selecting a
set of program variables and redirecting every addition / multiplication
that touches those variables to the chosen approximate hardware unit, while
counting operations so power and computation time can be estimated from the
pre-characterised per-operation costs.

:class:`~repro.instrumentation.context.ApproxContext` plays the role of that
instrumentation: benchmarks route their arithmetic through ``ctx.add`` /
``ctx.mul``, naming the program variables each operation touches; the
context dispatches to the exact or approximate unit and keeps per-unit
operation counts.
"""

from repro.instrumentation.context import ApproxContext, StackedContext
from repro.instrumentation.profile import OperationProfile

__all__ = ["ApproxContext", "OperationProfile", "StackedContext"]
