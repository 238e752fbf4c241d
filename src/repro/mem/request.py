"""Memory request objects exchanged between caches, controllers and memories."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


class AccessType(enum.Enum):
    """Why a request exists; used to split data-movement statistics.

    ``is_write``, ``is_active`` and ``_code`` (a small dense int for
    list-indexed per-type counters) are plain per-member attributes set
    below: memory systems read them once per access, and a property or an
    enum-keyed dict would cost a Python-level call each time.
    """

    NORMAL_READ = "normal_read"
    NORMAL_WRITE = "normal_write"
    OPERAND_READ = "operand_read"       # issued by an Active-Routing engine
    ACTIVE_WRITE = "active_write"       # mov/const_assign Updates committing to memory


for _code, _access_type in enumerate(AccessType):
    _access_type.is_write = _access_type in (AccessType.NORMAL_WRITE, AccessType.ACTIVE_WRITE)
    _access_type.is_active = _access_type in (AccessType.OPERAND_READ, AccessType.ACTIVE_WRITE)
    _access_type._code = _code
del _code, _access_type

_request_ids = itertools.count()


@dataclass
class MemoryRequest:
    """A single block-granularity access to the memory subsystem.

    ``on_complete`` is invoked with the finished request once the data (or the
    write acknowledgement) is back at the requester.
    """

    addr: int
    size: int = 64
    access_type: AccessType = AccessType.NORMAL_READ
    requester: Optional[str] = None
    core_id: Optional[int] = None
    issue_time: float = 0.0
    complete_time: float = 0.0
    on_complete: Optional[Callable[["MemoryRequest"], None]] = None
    req_id: int = field(default_factory=_request_ids.__next__)

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError("address must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")

    @property
    def is_write(self) -> bool:
        return self.access_type.is_write

    @property
    def latency(self) -> float:
        """Round-trip latency (valid only after completion)."""
        return self.complete_time - self.issue_time

    def complete(self, time: float) -> None:
        """Mark the request finished at ``time`` and fire the completion callback."""
        self.complete_time = time
        if self.on_complete is not None:
            self.on_complete(self)
