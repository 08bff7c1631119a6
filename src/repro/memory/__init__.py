"""Machine-memory substrate: frames, allocator, P2M tables, heap.

This package models Xen's memory management at the granularity the
warm-VM-reboot mechanisms operate on: frame *extents*, per-domain
P2M-mapping tables, the 16 MB VMM heap, and the reboot-surviving
preserved-image store.
"""

from repro.memory.allocator import FrameAllocator
from repro.memory.frames import Extent, MachineMemory
from repro.memory.heap import HeapAllocation, VmmHeap
from repro.memory.p2m import P2MSnapshot, P2MTable, table_bytes_for
from repro.memory.preserved import PreservedStore, SuspendImage

__all__ = [
    "Extent",
    "FrameAllocator",
    "HeapAllocation",
    "MachineMemory",
    "P2MSnapshot",
    "P2MTable",
    "PreservedStore",
    "SuspendImage",
    "VmmHeap",
    "table_bytes_for",
]
