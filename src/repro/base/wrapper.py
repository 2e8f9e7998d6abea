"""The conformance-wrapper interface (paper section 2.1).

A conformance wrapper ``C_i`` is a veneer over one off-the-shelf
implementation ``I_i`` that makes it implement the common abstract
specification ``S``.  It owns the *conformance rep* — whatever bookkeeping
is needed to translate between the implementation's concrete behaviour and
the abstract behaviour (for the file service: the oid array, file-handle
maps, and abstract timestamps).

Contracts the BASE library relies on:

* ``execute`` must call the injected ``modify(index)`` callback **before**
  the first mutation of each abstract object it changes (copy-on-write
  checkpointing depends on seeing the pre-image);
* ``get_obj`` (the abstraction function, per object) must be a pure
  observation of the implementation's state;
* ``put_objs`` (an inverse of the abstraction function) receives a complete
  consistent set of changed objects and must bring the implementation's
  concrete state to match;
* the wrapper treats the implementation as a **black box**: only its public
  service interface may be used.

A read-only answer may also call the injected ``reads(index)`` for each
abstract object it depends on — the dual of ``modify``.  An answer is a
function of the objects it declares, which the abstraction already demands:
every replica must give the same bytes from the same abstract state.  The
library then reuses the answer for the same op bytes until one of those
objects is modified or installed; an answer that declares nothing is
recomputed every time, and calls made during ordered executions are ignored.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict

from repro.base.abstraction import AbstractSpec


class ConformanceWrapper(ABC):
    """Base class for conformance wrappers.  ``execute``, ``get_obj`` and
    ``put_objs`` are the whole abstraction surface the library calls; a
    subclass missing one cannot be instantiated."""

    def __init__(self, spec: AbstractSpec) -> None:
        self.spec = spec
        self._modify: Callable[[int], None] = lambda index: None
        self._reads: Callable[[int], None] = lambda index: None

    # -- wiring (done by the BASE library) ------------------------------------------

    def set_modify_callback(self, modify: Callable[[int], None]) -> None:
        """Inject the library's ``modify`` upcall (paper Figure 1)."""
        self._modify = modify

    def set_reads_callback(self, reads: Callable[[int], None]) -> None:
        """Inject the library's ``reads`` upcall, the dual of ``modify``."""
        self._reads = reads

    def modify(self, index: int) -> None:
        """Notify the library that abstract object ``index`` is about to
        change."""
        self._modify(index)

    def reads(self, index: int) -> None:
        """Declare that the answer being computed depends on abstract object
        ``index`` (see the module docstring)."""
        self._reads(index)

    # -- the common specification's operations ------------------------------------------

    @abstractmethod
    def execute(
        self, op: bytes, client_id: str, timestamp_micros: int, read_only: bool = False
    ) -> bytes:
        """Run one abstract operation against the wrapped implementation.

        ``timestamp_micros`` is the batch's agreed non-deterministic time
        value (zero for read-only execution, which must not mutate state).
        """

    # -- state conversion (abstraction function and inverse) ------------------------------

    @abstractmethod
    def get_obj(self, index: int) -> bytes:
        """Abstraction function, restricted to one object index."""

    @abstractmethod
    def put_objs(self, objects: Dict[int, bytes]) -> None:
        """Inverse abstraction function: install new values for the given
        abstract objects into the concrete state."""

    # -- proactive recovery -----------------------------------------------------------------

    def save_for_recovery(self) -> None:
        """Persist the conformance rep (and any identifier maps needed to
        recompute the abstraction function after reboot).  Default: no-op."""
