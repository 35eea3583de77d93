"""Paged address space: ELRANGE plus untrusted outside memory.

The enclave's protected range is backed by one flat bytearray with a
permission byte per 4 KiB page.  Memory outside ELRANGE is demand-
allocated per page and is always readable and writable from enclave code
— but never executable while in enclave mode, matching SGX.

Every write that lands outside ELRANGE is logged in
:attr:`AddressSpace.untrusted_writes`; the attack-corpus tests use this
log to demonstrate that data actually leaks when P1 is switched off.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import MemoryFault

PAGE_SIZE = 4096
PAGE_SHIFT = 12

PERM_R = 1
PERM_W = 2
PERM_X = 4

_U64_MASK = (1 << 64) - 1


def perm_string(perms: int) -> str:
    return ("r" if perms & PERM_R else "-") + \
           ("w" if perms & PERM_W else "-") + \
           ("x" if perms & PERM_X else "-")


class AddressSpace:
    """Flat 64-bit address space with an SGX-style protected range."""

    def __init__(self, enclave_base: int, enclave_size: int):
        if enclave_base % PAGE_SIZE or enclave_size % PAGE_SIZE:
            raise ValueError("ELRANGE must be page aligned")
        self.enclave_base = enclave_base
        self.enclave_size = enclave_size
        self.enclave_end = enclave_base + enclave_size
        self._mem = bytearray(enclave_size)
        self._perms: List[int] = [0] * (enclave_size >> PAGE_SHIFT)
        #: Per-page fast-access masks consumed by the translator:
        #: ``_rpage[i]`` is 1 iff page *i* is readable, ``_wpage[i]`` iff
        #: it is writable *and* outside the watched code range (so a
        #: fast-path store can skip the SMC check entirely).  Both are
        #: maintained in place — generated code bakes direct references —
        #: and are sound to bake because :meth:`seal` freezes page
        #: permissions for the life of the enclave (SGXv1 EINIT).
        #: Aligned 8-byte accesses never straddle pages, so one byte per
        #: page suffices.
        self._rpage = bytearray(enclave_size >> PAGE_SHIFT)
        self._wpage = bytearray(enclave_size >> PAGE_SHIFT)
        #: Native-order aligned u64 lane over the enclave backing store
        #: (the translator guards its use on a little-endian host).
        self._mem_q = memoryview(self._mem).cast("Q")
        self._sealed = False
        self._outside: Dict[int, bytearray] = {}
        #: (address, length) log of every store outside ELRANGE.
        self.untrusted_writes: List[Tuple[int, int]] = []
        #: Bumped whenever a store hits the watched code range, so the
        #: VM can invalidate its decoded-instruction cache.
        self.code_version = 0
        self._code_watch = (0, 0)
        #: Dirty-page tracking (checkpoint support).  When enabled,
        #: every write records the 4 KiB pages it touched: enclave
        #: pages as *page indices* (ELRANGE offset >> 12, matching the
        #: single shift the translator's fast-path stores emit) in
        #: :attr:`_dirty`, untrusted pages as absolute page-base
        #: addresses in :attr:`_dirty_outside`.  The two sets are
        #: cleared only via :meth:`drain_dirty`, and the set objects
        #: themselves are never replaced — the translator bakes direct
        #: references to them into generated code.
        self.dirty_tracking = False
        self._dirty = set()
        self._dirty_outside = set()
        #: Write-invalidation hooks: called as ``hook(addr, size)`` for
        #: every store that lands in the watched code range.  A hook that
        #: returns ``False`` is dropped (lets block caches register via
        #: weakref and self-unregister once their CPU is gone).
        self._code_write_hooks = []

    # -- configuration -------------------------------------------------

    def in_enclave(self, addr: int, size: int = 1) -> bool:
        return self.enclave_base <= addr and \
            addr + size <= self.enclave_end

    def set_page_perms(self, addr: int, size: int, perms: int) -> None:
        """Set permissions on enclave pages (only before :meth:`seal`)."""
        if self._sealed:
            raise MemoryFault("page permissions are sealed (SGXv1)", addr)
        if not self.in_enclave(addr, max(size, 1)):
            raise MemoryFault("perms outside ELRANGE", addr)
        if addr % PAGE_SIZE or size % PAGE_SIZE:
            raise MemoryFault("perms must be page aligned", addr)
        first = (addr - self.enclave_base) >> PAGE_SHIFT
        for i in range(first, first + (size >> PAGE_SHIFT)):
            self._perms[i] = perms
        self._refresh_page_masks()

    def _refresh_page_masks(self) -> None:
        """Recompute the per-page fast-access masks *in place*."""
        lo, hi = self._code_watch
        base = self.enclave_base
        for i, perms in enumerate(self._perms):
            self._rpage[i] = 1 if perms & PERM_R else 0
            pstart = base + (i << PAGE_SHIFT)
            watched = lo < pstart + PAGE_SIZE and pstart < hi
            self._wpage[i] = 1 if perms & PERM_W and not watched else 0

    def seal(self) -> None:
        """Freeze page permissions — models EINIT under SGXv1."""
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def page_perms(self, addr: int) -> int:
        if self.in_enclave(addr):
            return self._perms[(addr - self.enclave_base) >> PAGE_SHIFT]
        return PERM_R | PERM_W  # untrusted memory: RW, never X in enclave

    def watch_code_range(self, start: int, size: int) -> None:
        """Invalidate the VM's icache when stores hit [start, start+size)."""
        self._code_watch = (start, start + size)
        self._refresh_page_masks()

    def add_code_write_hook(self, hook) -> None:
        """Register ``hook(addr, size)`` for stores into the watched
        code range (the translator's block-invalidation protocol)."""
        self._code_write_hooks.append(hook)

    def invalidate_code_range(self, addr: int, size: int) -> None:
        """Force code-cache invalidation for [addr, addr+size) without
        writing any bytes — the fault injector's SMC chaos knob and the
        hypervisor's post-restore flush both use this to exercise the
        translator's invalidation protocol on demand."""
        self.code_version += 1
        if self._code_write_hooks:
            self._code_write_hooks = [
                h for h in self._code_write_hooks
                if h(addr, max(size, 1)) is not False]

    # -- dirty-page tracking (incremental checkpoints) ------------------

    def track_dirty(self, enabled: bool = True) -> None:
        """Switch dirty-page tracking on (or off).

        Must be enabled *before* any CPU whose translated blocks should
        record their fast-path stores is created: the translator bakes
        the tracking decision into generated code at compile time."""
        self.dirty_tracking = enabled

    def _mark_dirty(self, addr: int, size: int) -> None:
        first = (addr - self.enclave_base) >> PAGE_SHIFT
        last = (addr + max(size, 1) - 1 - self.enclave_base) >> PAGE_SHIFT
        for index in range(first, last + 1):
            self._dirty.add(index)

    def drain_dirty(self):
        """Return ``(enclave_page_indices, outside_page_addrs)``
        dirtied since the last drain (frozen sets) and reset the
        tracking sets *in place* (baked references stay live)."""
        dirty = frozenset(self._dirty)
        outside = frozenset(self._dirty_outside)
        self._dirty.clear()
        self._dirty_outside.clear()
        return dirty, outside

    def snapshot_ram(self) -> bytes:
        """Copy of the full enclave image (text + data + stack).

        Paired with :meth:`restore_ram` for warm re-runs: permissions,
        page masks and ``code_version`` are deliberately *not* part of
        the snapshot — restoring the same bytes under the same
        permissions leaves every translated block valid, which is the
        point."""
        return bytes(self._mem)

    def restore_ram(self, image: bytes) -> None:
        """Restore an image taken by :meth:`snapshot_ram` in place.

        In-place so live ``memoryview``/closure references into the
        buffer (the translator's fast paths) stay valid."""
        if len(image) != len(self._mem):
            raise ValueError("snapshot size mismatch")
        self._mem[:] = image
        self._dirty.clear()
        self._dirty_outside.clear()

    # -- raw access (loader / bootstrap use; no permission checks) -----

    def write_raw(self, addr: int, data: bytes) -> None:
        """Privileged write used by the loader before the enclave runs."""
        if self.in_enclave(addr, len(data)):
            off = addr - self.enclave_base
            self._mem[off:off + len(data)] = data
            if self.dirty_tracking:
                self._mark_dirty(addr, len(data))
        else:
            if self.dirty_tracking and data:
                for i in range(0, len(data) + (addr & (PAGE_SIZE - 1)),
                               PAGE_SIZE):
                    self._dirty_outside.add(
                        (addr + i) & ~(PAGE_SIZE - 1))
            for i, b in enumerate(data):
                self._store_outside_u8(addr + i, b)

    def read_raw(self, addr: int, size: int) -> bytes:
        if self.in_enclave(addr, size):
            off = addr - self.enclave_base
            return bytes(self._mem[off:off + size])
        return bytes(self._load_outside_u8(addr + i) for i in range(size))

    # -- untrusted page helpers ----------------------------------------

    def _outside_page(self, addr: int) -> bytearray:
        page_addr = addr & ~(PAGE_SIZE - 1)
        page = self._outside.get(page_addr)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._outside[page_addr] = page
        return page

    def _load_outside_u8(self, addr: int) -> int:
        return self._outside_page(addr)[addr & (PAGE_SIZE - 1)]

    def _store_outside_u8(self, addr: int, value: int) -> None:
        self._outside_page(addr)[addr & (PAGE_SIZE - 1)] = value & 0xFF

    # -- checked access (the VM's data path) ----------------------------

    def _check(self, addr: int, size: int, perm: int, what: str) -> None:
        if addr < self.enclave_base or addr + size > self.enclave_end:
            # straddling the boundary is a fault; fully outside is RW
            if addr + size > self.enclave_base and addr < self.enclave_end:
                raise MemoryFault(f"{what} straddles ELRANGE boundary", addr)
            if perm & PERM_X:
                raise MemoryFault(
                    f"{what}: execute outside ELRANGE in enclave mode", addr)
            return
        first = (addr - self.enclave_base) >> PAGE_SHIFT
        last = (addr + size - 1 - self.enclave_base) >> PAGE_SHIFT
        for i in range(first, last + 1):
            if self._perms[i] & perm != perm:
                raise MemoryFault(
                    f"{what} at {addr:#x}: page perms "
                    f"{perm_string(self._perms[i])}", addr)

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes little-endian with R permission check."""
        self._check(addr, size, PERM_R, "load")
        if self.in_enclave(addr, size):
            off = addr - self.enclave_base
            return int.from_bytes(self._mem[off:off + size], "little")
        value = 0
        for i in range(size):
            value |= self._load_outside_u8(addr + i) << (8 * i)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        """Store ``size`` bytes little-endian with W permission check."""
        self._check(addr, size, PERM_W, "store")
        if self.in_enclave(addr, size):
            off = addr - self.enclave_base
            self._mem[off:off + size] = (value & ((1 << (8 * size)) - 1)) \
                .to_bytes(size, "little")
            if self.dirty_tracking:
                self._mark_dirty(addr, size)
            lo, hi = self._code_watch
            if lo < addr + size and addr < hi:
                self.code_version += 1
                if self._code_write_hooks:
                    self._code_write_hooks = [
                        h for h in self._code_write_hooks
                        if h(addr, size) is not False]
        else:
            self.untrusted_writes.append((addr, size))
            if self.dirty_tracking:
                self._dirty_outside.add(addr & ~(PAGE_SIZE - 1))
                self._dirty_outside.add(
                    (addr + size - 1) & ~(PAGE_SIZE - 1))
            for i in range(size):
                self._store_outside_u8(addr + i, (value >> (8 * i)) & 0xFF)

    def load_u64(self, addr: int) -> int:
        return self.load(addr, 8)

    def store_u64(self, addr: int, value: int) -> None:
        self.store(addr, value & _U64_MASK, 8)

    def load_u8(self, addr: int) -> int:
        return self.load(addr, 1)

    def store_u8(self, addr: int, value: int) -> None:
        self.store(addr, value & 0xFF, 1)

    def fetch(self, addr: int, size: int) -> memoryview:
        """Instruction fetch: X permission required, enclave only."""
        self._check(addr, size, PERM_X, "fetch")
        off = addr - self.enclave_base
        return memoryview(self._mem)[off:off + size]

    def check_exec(self, addr: int, size: int) -> None:
        """Raise unless all of [addr, addr+size) is executable."""
        self._check(addr, size, PERM_X, "fetch")

    def read_page(self, page_addr: int) -> bytes:
        """Whole-page read for checkpointing (enclave or untrusted)."""
        if page_addr & (PAGE_SIZE - 1):
            raise MemoryFault("page read must be aligned", page_addr)
        if self.in_enclave(page_addr, PAGE_SIZE):
            off = page_addr - self.enclave_base
            return bytes(self._mem[off:off + PAGE_SIZE])
        return bytes(self._outside_page(page_addr))

    def write_page(self, page_addr: int, data: bytes) -> None:
        """Whole-page restore for checkpointing (privileged path)."""
        if page_addr & (PAGE_SIZE - 1) or len(data) != PAGE_SIZE:
            raise MemoryFault("page write must be one aligned page",
                              page_addr)
        if self.in_enclave(page_addr, PAGE_SIZE):
            off = page_addr - self.enclave_base
            self._mem[off:off + PAGE_SIZE] = data
            if self.dirty_tracking:
                self._dirty.add(off >> PAGE_SHIFT)
            lo, hi = self._code_watch
            if lo < page_addr + PAGE_SIZE and page_addr < hi:
                self.code_version += 1
                if self._code_write_hooks:
                    self._code_write_hooks = [
                        h for h in self._code_write_hooks
                        if h(page_addr, PAGE_SIZE) is not False]
        else:
            self._outside_page(page_addr)[:] = data
            if self.dirty_tracking:
                self._dirty_outside.add(page_addr)

    def enclave_view(self) -> memoryview:
        """Zero-copy view of the whole ELRANGE backing store.

        The VM decodes instructions straight out of this view (after
        permission checks) so fetch does not copy bytes per instruction.
        """
        return memoryview(self._mem)
