"""Downward-growing call stack with return-address slots and canaries.

The stack exists so that the attack corpus can demonstrate *stack* smashing
(overwriting a saved return address through an on-stack buffer) alongside
the heap smashing of demo 3.4, and so the stack-protector policy (canary
between locals and the return address, as in StackGuard / libsafe [1]) can
be reproduced as one of the HEALERS security-wrapper features.

Frame layout, addresses decreasing downward::

    frame base (old stack pointer)
      -8    saved return address (u64 token)
      -16   stack canary (u64), when protection is enabled
      ...   locals, allocated top-down; a buffer overflow writes *upward*
            through the canary into the return address.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import SegmentationFault, StackSmashingDetected
from repro.memory.model import AddressSpace, Mapping, Perm

RETURN_SLOT = 8
CANARY_SLOT = 8


@dataclass
class Frame:
    """One activation record on the simulated stack."""

    name: str
    base: int
    return_address: int
    canary_address: Optional[int]
    canary_value: Optional[int]
    locals_top: int
    locals: List[int] = field(default_factory=list)

    @property
    def return_slot(self) -> int:
        """Address of the saved-return-address slot."""
        return self.base - RETURN_SLOT


class CallStack:
    """A simulated process stack supporting frame push/pop and alloca."""

    def __init__(
        self,
        space: AddressSpace,
        size: int = 256 * 1024,
        protect: bool = False,
        name: str = "[stack]",
    ):
        self.space = space
        self.mapping: Mapping = space.map_region(size, Perm.RW, name)
        self.protect = protect
        self.reset()

    def reset(self) -> None:
        """Pop every frame without checks and draw a new canary."""
        self.sp = self.mapping.end
        self.frames: List[Frame] = []
        #: per-process random canary, as glibc derives one at startup
        self.canary_seed = secrets.randbits(64) | 0xFF

    def push_frame(self, name: str, return_address: int = 0) -> Frame:
        """Enter a function: save the return address (and canary)."""
        base = self.sp
        sp = base - RETURN_SLOT
        self._check_sp(sp, 8)
        self.space.write_u64(sp, return_address)
        canary_address = None
        canary_value = None
        if self.protect:
            sp -= CANARY_SLOT
            self._check_sp(sp, 8)
            canary_value = self.canary_seed
            canary_address = sp
            self.space.write_u64(sp, canary_value)
        frame = Frame(
            name=name,
            base=base,
            return_address=return_address,
            canary_address=canary_address,
            canary_value=canary_value,
            locals_top=sp,
        )
        self.sp = sp
        self.frames.append(frame)
        return frame

    def alloca(self, size: int, align: int = 16) -> int:
        """Reserve ``size`` bytes of locals in the current frame."""
        if not self.frames:
            raise RuntimeError("alloca outside any frame")
        if size < 0:
            raise ValueError("negative alloca")
        sp = (self.sp - size) & ~(align - 1)
        self._check_sp(sp, size)
        self.sp = sp
        self.frames[-1].locals.append(sp)
        return sp

    def pop_frame(self) -> int:
        """Leave the current function.

        Returns the (possibly attacker-controlled) value read back from the
        return-address slot; callers compare it with the value they pushed
        to detect control-flow hijack.  Raises
        :class:`StackSmashingDetected` when protection is on and the canary
        was clobbered — the check runs *before* the return address is used,
        as a real stack protector does.
        """
        if not self.frames:
            raise RuntimeError("pop_frame on empty stack")
        frame = self.frames.pop()
        if frame.canary_address is not None:
            if self.space.read_u64(frame.canary_address) != frame.canary_value:
                raise StackSmashingDetected(frame.name)
        returned = self.space.read_u64(frame.return_slot)
        self.sp = frame.base
        return returned

    @property
    def current_frame(self) -> Optional[Frame]:
        """The innermost frame, or None when the stack is empty."""
        return self.frames[-1] if self.frames else None

    def depth(self) -> int:
        """Number of live frames."""
        return len(self.frames)

    def _check_sp(self, sp: int, size: int) -> None:
        if sp < self.mapping.start:
            raise SegmentationFault(sp, "write", "stack overflow")
        if sp + size > self.mapping.end:
            raise SegmentationFault(sp, "write", "stack underflow")
