"""The ORB runtime: connections, dispatch, proxies, object adapter.

Python renditions of the MICO classes on the data path of Figs. 3/4 —
``IIOPProxy``, ``GIOPConn``, ``IIOPServer``, the method dispatcher and
the compiler-facing stub/skeleton bases — plus CORBA system/user
exceptions and the ORB facade."""

from .aio import AsyncStub, async_api, gather_window, run_sync
from .connection import ConnStats, GIOPConn, ReceivedMessage
from .dii import DynRequest
from .dispatcher import MethodDispatcher
from .exceptions import (BAD_OPERATION, BAD_PARAM, COMM_FAILURE, INTERNAL,
                         INV_OBJREF, MARSHAL, NO_IMPLEMENT, OBJECT_NOT_EXIST,
                         TIMEOUT, TRANSIENT, UNKNOWN, CompletionStatus,
                         SystemException, UserException, retry_safe)
from .interceptors import (AccountingInterceptor, InterceptorRegistry,
                           RequestInfo, RequestInterceptor)
from .object_adapter import POA, Servant
from .orb import ORB, ORBConfig
from .policy import NO_RETRY, Deadline, InvocationPolicy
from .proxy import IIOPProxy
from .reactor import Reactor, get_reactor
from .server import IIOPServer
from .signatures import (InterfaceDef, OperationSignature, Param, ParamMode)
from .stubs import ObjectStub, lookup_stub_class, register_stub_class

__all__ = [
    "ORB", "ORBConfig", "DynRequest",
    "AsyncStub", "async_api", "gather_window", "run_sync",
    "Reactor", "get_reactor",
    "InvocationPolicy", "Deadline", "NO_RETRY",
    "RequestInterceptor", "RequestInfo", "InterceptorRegistry",
    "AccountingInterceptor",
    "GIOPConn", "ReceivedMessage", "ConnStats",
    "IIOPProxy", "IIOPServer", "MethodDispatcher",
    "POA", "Servant", "ObjectStub",
    "register_stub_class", "lookup_stub_class",
    "InterfaceDef", "OperationSignature", "Param", "ParamMode",
    "SystemException", "UserException", "CompletionStatus",
    "UNKNOWN", "BAD_PARAM", "COMM_FAILURE", "INV_OBJREF", "INTERNAL",
    "MARSHAL", "NO_IMPLEMENT", "BAD_OPERATION", "TRANSIENT",
    "OBJECT_NOT_EXIST", "TIMEOUT", "retry_safe",
]
