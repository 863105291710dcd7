"""Object adapter (POA-lite): servant registry and object keys.

Maps GIOP object keys to activated servants.  Servants are instances
of skeleton classes produced by the IDL compiler; each carries its
:class:`~repro.orb.signatures.InterfaceDef` as ``_INTERFACE``, which the
dispatcher uses to find operation signatures (MICO's compiler-generated
"object skeleton" of Fig. 3).
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional

from .exceptions import BAD_PARAM, OBJECT_NOT_EXIST
from .signatures import InterfaceDef

__all__ = ["POA", "Servant"]


class Servant:
    """Base class of all skeletons (the IDL compiler subclasses this)."""

    _INTERFACE: Optional[InterfaceDef] = None

    def _interface(self) -> InterfaceDef:
        iface = self._INTERFACE
        if iface is None:
            raise TypeError(
                f"{type(self).__name__} has no _INTERFACE; servants must "
                f"derive from an IDL-generated skeleton")
        return iface

    # -- implicit operations available on every object ----------------------
    def _is_a(self, repo_id: str) -> bool:
        return self._interface().is_a(repo_id)

    def _non_existent(self) -> bool:
        return False


class POA:
    """A flat portable-object-adapter: activate/deactivate/lookup."""

    def __init__(self, name: str = "RootPOA"):
        self.name = name
        self._oids = itertools.count(1)
        self._servants: Dict[bytes, Servant] = {}
        self._keys_by_servant: Dict[int, bytes] = {}
        self._lock = threading.Lock()

    def activate_object(self, servant: Servant) -> bytes:
        """Register ``servant``; returns its object key (idempotent)."""
        if not isinstance(servant, Servant):
            raise BAD_PARAM(message=(
                f"servant must derive from Servant, got "
                f"{type(servant).__name__}"))
        servant._interface()  # validate early
        with self._lock:
            existing = self._keys_by_servant.get(id(servant))
            if existing is not None:
                return existing
            key = f"{self.name}/{next(self._oids):08x}".encode("ascii")
            self._servants[key] = servant
            self._keys_by_servant[id(servant)] = key
            return key

    def deactivate_object(self, key: bytes) -> None:
        with self._lock:
            servant = self._servants.pop(key, None)
            if servant is None:
                raise OBJECT_NOT_EXIST(message=f"no servant for key {key!r}")
            self._keys_by_servant.pop(id(servant), None)

    def find_servant(self, key: bytes) -> Optional[Servant]:
        if type(key) is not bytes:
            key = bytes(key)  # a view or bytearray: make it hashable
        with self._lock:
            return self._servants.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._servants)
