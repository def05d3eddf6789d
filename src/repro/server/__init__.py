"""Client/server deployment: wire protocol, the server, client library,
and the portable UDF development workflow (Section 6.4)."""

from .. import adtstream  # the wire's codec, shared with every boundary
from .admission import AdmissionController
from .client import Client, LocalUDFHarness
from .server import DatabaseServer

__all__ = [
    "AdmissionController",
    "Client",
    "DatabaseServer",
    "LocalUDFHarness",
    "adtstream",
]
