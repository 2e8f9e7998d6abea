"""Shared state for one lint run's flow rules.

Flow rules are registered like any other rule but receive a
:class:`FlowContext` instead of a :class:`FileContext`/:class:`ProjectIndex`:
the project index plus the call graph, built lazily on first use and shared
by every rule, and a scratch ``cache`` dict for a rule family that
precomputes shared facts (the taint state).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.analysis.flow.callgraph import CallGraph, build_callgraph
from repro.analysis.registry import ProjectIndex


class FlowContext:
    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.cache: Dict[str, Any] = {}
        self._callgraph: Optional[CallGraph] = None

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = build_callgraph(self.index)
        return self._callgraph
