"""Client/server deployment: wire protocol, the server, client library,
and the portable UDF development workflow (Section 6.4)."""

from .admission import AdmissionController
from .adtstream import read_value, write_value
from .client import Client, LocalUDFHarness
from .server import DatabaseServer

__all__ = [
    "AdmissionController",
    "Client",
    "DatabaseServer",
    "LocalUDFHarness",
    "read_value",
    "write_value",
]
