"""The load-time pass order, written once.

A class is analyzed right after it verifies: effects, then resource
bounds, then information flows, then decompilation.  The class loader
runs this at CREATE FUNCTION, and ``python -m repro.analysis`` runs the
same function, so the CLI reports exactly what a load would attach.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..vm.classfile import ClassFile, FunctionDef
from ..vm.verifier import Resolver
from .bounds import Replay, certify_class
from .decompile import decompile_class
from .effects import analyze_class
from .flows import analyze_flows

#: Resolves a CALL into another class to its loaded ``FunctionDef``, or
#: None when it cannot be resolved (its facts are then unknown).
ForeignFunctions = Callable[[str, str], Optional[FunctionDef]]


def _unresolved(class_name: str, func_name: str) -> None:
    return None


def load_time_analysis(
    cls: ClassFile,
    resolver: Resolver,
    foreign_function: ForeignFunctions = _unresolved,
) -> None:
    """Attach every load-time fact to a *verified* class.

    Each function gains ``summary``, ``certificate``, ``flows`` and
    ``inline``; the class gains the ``analysis``, ``certificates`` and
    ``flows`` rollups.  The effect pass runs first, so the certifier's
    transitive bounds and the decompiler's purity gate can read it.  The
    certifier solves each function's interval fixpoint once and hands
    its per-pc stacks to the flow pass, which finds the trap sites in
    them; the stacks are dropped when this returns.
    """
    def summary_of(class_name: str, func_name: str):
        return getattr(foreign_function(class_name, func_name),
                       "summary", None)

    def certificate_of(class_name: str, func_name: str):
        return getattr(foreign_function(class_name, func_name),
                       "certificate", None)

    analyze_class(cls, foreign_summary=summary_of)
    stacks: Dict[str, Replay] = {}
    certify_class(cls, resolver=resolver,
                  foreign_certificate=certificate_of, stacks=stacks)
    analyze_flows(cls, stacks, resolver=resolver)
    decompile_class(cls)
