"""Provision cache: verified + rewritten images keyed on inputs.

Part of the measured consumer: ``ecall_receive_binary`` consults the
cache before it verifies, and a hit installs the stored image through
:meth:`~repro.core.loader.DynamicLoader.install_image` *instead of*
verifying.  The cache stores only the outputs of accepted provisioning
runs, so its key (see ``BootstrapEnclave._provision_key``) is what
stands between a hit and a binary the verifier never saw — which is why
it is counted with the code it can skip.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional

from .loader import ProvisionedImage


class ProvisionCache:
    """LRU of verified + rewritten images, keyed on the provision triple.

    The key is ``(sha256(blob), policy fingerprint, config fingerprint,
    aex_threshold)`` — every input of the parse → load → RDD → verify →
    rewrite pipeline.  A hit replays the captured memory images through
    :meth:`DynamicLoader.install_image`, skipping disassembly,
    annotation verification and imm rewriting entirely (the dominant
    one-time cost the paper measures in §VI-B).  Only *accepted*
    binaries are ever stored: a rejected blob re-verifies (and
    re-fails) on every attempt, and any mutated blob changes the digest
    and therefore misses.
    """

    def __init__(self, maxsize: int = 64):
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, ProvisionedImage]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> Optional[ProvisionedImage]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: tuple, image: ProvisionedImage) -> None:
        self._entries[key] = image
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def invalidate(self, blob: Optional[bytes] = None,
                   digest: Optional[bytes] = None) -> int:
        """Drop entries for one blob (under every policy/config), or —
        with no argument — every entry.  Returns the eviction count."""
        if blob is not None:
            digest = hashlib.sha256(blob).digest()
        if digest is None:
            count = len(self._entries)
            self._entries.clear()
            return count
        stale = [key for key in self._entries if key[0] == digest]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        """Invalidate everything and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    # -- cross-process harvest (the bench worker pool) -------------------

    def keys(self) -> frozenset:
        return frozenset(self._entries)

    def export_since(self, keys: frozenset) -> dict:
        """Entries added after a :meth:`keys` snapshot — what a pool
        worker ships back to the parent process."""
        return {key: image for key, image in self._entries.items()
                if key not in keys}

    def absorb(self, entries: dict) -> None:
        """Merge entries harvested from a worker process."""
        for key, image in entries.items():
            if key not in self._entries:
                self.store(key, image)

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses}


#: Process-wide default cache.  Opt-in: a ``BootstrapEnclave`` only
#: consults it when constructed with ``provision_cache=PROVISION_CACHE``
#: (the bench harness and the HTTPS simulator do; ad-hoc enclaves keep
#: the always-verify behaviour).
PROVISION_CACHE = ProvisionCache()
