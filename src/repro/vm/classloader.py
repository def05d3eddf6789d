"""JaguarVM class loaders.

Section 6.1: "a UDF can be loaded with a special class loader that
isolates the UDF's namespace from that of other UDFs and prevents
interactions between them."  This module implements exactly that model:

* a :class:`SystemClassLoader` holds trusted, shared classes (ADT helper
  classes the server publishes to all UDFs);
* each UDF gets its own :class:`UDFClassLoader` whose namespace shadows
  nothing and leaks nothing — two UDFs may both define a class named
  ``Main`` without interference, and neither can resolve the other's
  classes;
* resolution is parent-first (like Java's delegation model), so a UDF
  cannot redefine a trusted system class for itself.

Classes are verified at definition time, with CALL targets resolved
through the defining loader — eager linking, so a classfile whose
references cannot be resolved is rejected before it ever runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..errors import LinkError
from .classfile import ClassFile, FunctionDef
from .security import Signature
from .stdlib import NATIVE_SIGNATURES
from .verifier import Resolver, verify_class


class ClassLoader:
    """Base loader: a namespace of verified classes with parent delegation."""

    def __init__(
        self,
        name: str,
        parent: Optional["ClassLoader"] = None,
        callback_signatures: Optional[Dict[str, Signature]] = None,
    ):
        self.name = name
        self.parent = parent
        self._classes: Dict[str, ClassFile] = {}
        if callback_signatures is None and parent is not None:
            callback_signatures = parent.callback_signatures
        self.callback_signatures = callback_signatures or {}

    # -- resolution -----------------------------------------------------------

    def resolve_class(self, class_name: str) -> ClassFile:
        """Parent-first lookup; raises :class:`LinkError` when not found."""
        if self.parent is not None:
            try:
                return self.parent.resolve_class(class_name)
            except LinkError:
                pass
        try:
            return self._classes[class_name]
        except KeyError:
            raise LinkError(
                f"loader {self.name!r} cannot resolve class {class_name!r}"
            ) from None

    def resolve_function(
        self, class_name: str, func_name: str
    ) -> Tuple[ClassFile, FunctionDef]:
        """Resolve a CALL target; used by the interpreter and JIT."""
        cls = self.resolve_class(class_name)
        func = cls.functions.get(func_name)
        if func is None:
            raise LinkError(f"unknown function {class_name}.{func_name}")
        return cls, func

    def defines(self, class_name: str) -> bool:
        """True if *this* loader (not a parent) defines the class."""
        return class_name in self._classes

    # -- definition --------------------------------------------------------------

    def define_class(self, source: Union[bytes, ClassFile]) -> ClassFile:
        """Decode (if necessary), verify, and admit a class.

        Accepts raw classfile bytes (the hostile path — a migrated UDF)
        or an in-memory :class:`ClassFile` (the local-compile path).
        Either way the class is verified *here*, with resolution scoped
        to this loader, before it becomes resolvable.
        """
        if isinstance(source, (bytes, bytearray)):
            cls = ClassFile.from_bytes(bytes(source))
        else:
            cls = source
        if self.defines(cls.name):
            raise LinkError(
                f"loader {self.name!r} already defines class {cls.name!r}"
            )
        try:
            # Make the class visible to its own verification so that
            # intra-class (and self-recursive) calls resolve.
            self._classes[cls.name] = cls
            verify_class(cls, self._resolver())
            self._analyze(cls)
        except Exception:
            del self._classes[cls.name]
            raise
        return cls

    def _analyze(self, cls: ClassFile) -> None:
        """Attach load-time facts with ``analysis.load_time_analysis``,
        the one place that holds the pass order.

        Runs right after verification, while the class is visible to this
        loader, so cross-class CALLs resolve parent-first exactly like
        the verifier's signature resolution did.
        """
        from ..analysis.pipeline import load_time_analysis

        def foreign_function(class_name: str, func_name: str):
            try:
                return self.resolve_function(class_name, func_name)[1]
            except LinkError:  # pragma: no cover - verifier linked eagerly
                return None

        load_time_analysis(cls, self._resolver(), foreign_function)

    def _resolver(self) -> Resolver:
        def function_signature(class_name: str, func_name: str) -> Signature:
            __, func = self.resolve_function(class_name, func_name)
            return func.signature

        def native_signature(name: str) -> Signature:
            try:
                return NATIVE_SIGNATURES[name]
            except KeyError:
                raise LinkError(f"unknown native {name!r}") from None

        def callback_signature(name: str) -> Signature:
            try:
                return self.callback_signatures[name]
            except KeyError:
                raise LinkError(f"unknown callback {name!r}") from None

        return Resolver(function_signature, native_signature, callback_signature)


class SystemClassLoader(ClassLoader):
    """The root loader holding trusted shared classes."""

    def __init__(self, callback_signatures: Optional[Dict[str, Signature]] = None):
        super().__init__(
            name="system", parent=None, callback_signatures=callback_signatures
        )


class UDFClassLoader(ClassLoader):
    """One isolated namespace per UDF registration."""

    def __init__(
        self,
        udf_name: str,
        parent: ClassLoader,
        callback_signatures: Optional[Dict[str, Signature]] = None,
    ):
        super().__init__(
            name=f"udf:{udf_name}",
            parent=parent,
            callback_signatures=callback_signatures,
        )
