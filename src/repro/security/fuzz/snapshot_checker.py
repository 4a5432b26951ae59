"""Offline, dissimilar verification of a Hypersec machine image.

This is the second verification channel the fuzzer diffs against the
live auditor (:mod:`repro.core.audit`).  It deliberately shares *no
state* with the running system: everything is re-derived from a raw
:class:`~repro.state.Snapshot` —

* the physical memory image is reloaded into a private
  :class:`~repro.hw.memory.PhysicalMemory` (no bus, no caches, no
  timing);
* translation roots come from the snapshotted ``TTBR0_EL1`` /
  ``TTBR1_EL1`` register values, and reachable tables from walking the
  raw descriptors;
* monitored pages are decoded from the raw MBM bitmap words, whose
  location is recomputed from the platform geometry alone (mirroring
  the layout contract in :mod:`repro.core.mbm`, not reading the MBM
  object's state);
* the kernel linear-map view is re-walked from ``TTBR1_EL1`` instead of
  using :meth:`~repro.kernel.physmem.LinearMap.leaf_desc_addr`.

The only Hypersec bookkeeping consulted is the *claimed* policy
(``table_pages``, ``root_tables``, ``kernel_root``, ``recorded_regs``)
— and it is consulted as a claim to be checked, never as ground truth:
``claimed_tables`` feeds the reachable-vs-registered ``TABLE_TOPOLOGY``
comparison, so a bookkeeping desync the live auditor cannot see (it
trusts the same bookkeeping) becomes a finding here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.config import PAGE_BYTES, WORD_BYTES
from repro.errors import SnapshotError
from repro.hw.memory import PhysicalMemory
from repro.arch.pagetable import Descriptor, index_for_level
from repro.security.fuzz.invariants import (
    Evidence,
    Geometry,
    InvariantReport,
    run_invariants,
    walk_tree,
)
from repro.state import Snapshot

_PAGE_MASK = PAGE_BYTES - 1

#: Layout contract with repro.core.mbm: the bitmap lives 1 MB into the
#: secure region, one bit per covered word, covering all of non-secure
#: DRAM.  Recomputed here from the geometry so this channel does not
#: read the MBM object's serialized state.
_BITMAP_OFFSET = 1 << 20
_WORDS_PER_BITMAP_WORD = 64


class SnapshotEvidence(Evidence):
    """A serialized machine image as an invariant-checking evidence
    source (see module docstring for the dissimilarity contract)."""

    def __init__(self, snapshot: Snapshot):
        config = snapshot.platform_config()
        dram_limit = config.dram_base + config.dram_bytes
        secure_base = dram_limit - config.secure_bytes
        self.geometry = Geometry(
            dram_base=config.dram_base,
            dram_limit=dram_limit,
            secure_base=secure_base,
            secure_limit=dram_limit,
        )
        memory_state = snapshot.section("memory")
        self.memory = PhysicalMemory()
        for base, limit in memory_state["ranges"]:
            self.memory.add_range(int(base), int(limit) - int(base))
        self.memory.load_state(memory_state)
        self._regs = {
            str(name): int(value)
            for name, value in snapshot.section("cpu")["regs"].items()
        }
        try:
            policy = snapshot.section("hypersec")
        except SnapshotError:
            raise SnapshotError(
                f"snapshot holds a {snapshot.system_name!r} system; only "
                "hypernel images carry the Hypersec policy to check"
            ) from None
        self._claimed_tables = {int(p) for p in policy["table_pages"]}
        self._claimed_roots = {int(p) for p in policy["root_tables"]}
        self._recorded_root = int(policy["kernel_root"])
        self._recorded_regs = {
            str(name): int(value)
            for name, value in policy["recorded_regs"].items()
        }
        self._has_mbm = "mbm" in snapshot.sections
        self._reachable: Optional[Set[int]] = None
        self._monitored: Optional[Set[int]] = None

    # -- raw access ----------------------------------------------------
    def reg(self, name: str) -> int:
        return self._regs[name]

    def recorded_reg(self, name: str) -> Optional[int]:
        """Hypersec's recorded value for a trapped VM register."""
        return self._recorded_regs.get(name)

    # -- translation topology -----------------------------------------
    def roots(self) -> List[int]:
        """Walk from the *hardware* translation roots first (TTBR1/0),
        then every claimed root, so parked process trees are covered
        without trusting that the claimed set is complete."""
        roots = {self._regs["TTBR1_EL1"] & ~_PAGE_MASK}
        ttbr0 = self._regs["TTBR0_EL1"] & ~_PAGE_MASK
        if ttbr0:
            roots.add(ttbr0)
        roots.update(self._claimed_roots)
        roots.add(self._recorded_root & ~_PAGE_MASK)
        return sorted(roots)

    def table_pages(self) -> Set[int]:
        return set(self._claimed_tables)

    def claimed_tables(self) -> Optional[Set[int]]:
        return set(self._claimed_tables)

    def reachable_tables(self) -> Set[int]:
        """Every table page reachable from the roots (cached)."""
        if self._reachable is None:
            scratch = InvariantReport()
            reached: Set[int] = set()
            for root in self.roots():
                seen, _leaves = walk_tree(self, root, scratch)
                reached |= seen
            self._reachable = reached
        return set(self._reachable)

    def table_is_empty(self, table: int) -> bool:
        """True when a (backed) table page holds only invalid entries."""
        if not (self.backed(table)
                and self.backed(table + PAGE_BYTES - WORD_BYTES)):
            return False
        return not any(self.read_page(table))

    # -- linear-map view ----------------------------------------------
    def has_linear_view(self) -> bool:
        return True

    def linear_leaf(self, paddr: int) -> Optional[Descriptor]:
        """Re-walk the kernel linear map from TTBR1 in raw memory."""
        offset = paddr - self.geometry.dram_base
        if offset < 0:
            return None
        table = self._regs["TTBR1_EL1"] & ~_PAGE_MASK
        for level in (1, 2, 3):
            desc_addr = table + index_for_level(offset, level) * WORD_BYTES
            if not self.backed(desc_addr):
                return None
            desc = Descriptor(self.peek(desc_addr))
            if not desc.valid:
                return None
            if level == 3 or not desc.is_table:
                return desc
            table = desc.address
        return None  # pragma: no cover - loop always returns

    # -- monitoring ----------------------------------------------------
    def bitmap_storage(self) -> Optional[Tuple[int, int]]:
        if not self._has_mbm:
            return None
        covered_words = (
            self.geometry.secure_base - self.geometry.dram_base
        ) // WORD_BYTES
        bitmap_words = -(-covered_words // _WORDS_PER_BITMAP_WORD)
        base = self.geometry.secure_base + _BITMAP_OFFSET
        return base, base + bitmap_words * WORD_BYTES

    def monitored_pages(self) -> Set[int]:
        """Decode monitored pages from the raw bitmap words."""
        if self._monitored is None:
            pages: Set[int] = set()
            storage = self.bitmap_storage()
            if storage is not None:
                base, limit = storage
                for word_addr, raw in self.nonzero_words(base, limit):
                    while raw:
                        bit = (raw & -raw).bit_length() - 1
                        raw &= raw - 1
                        word_index = (
                            (word_addr - base) // WORD_BYTES
                        ) * _WORDS_PER_BITMAP_WORD + bit
                        paddr = (self.geometry.dram_base
                                 + word_index * WORD_BYTES)
                        pages.add(paddr & ~_PAGE_MASK)
            self._monitored = pages
        return set(self._monitored)

    def expected_bitmap(self) -> Optional[Dict[int, int]]:
        # The raw bitmap *is* this channel's source of monitored truth;
        # checking it against itself would be vacuous.  The live channel
        # checks it against the registered regions instead.
        return None

    # -- recorded policy ----------------------------------------------
    def recorded_kernel_root(self) -> Optional[int]:
        return self._recorded_root

    def recorded_root_tables(self) -> Set[int]:
        return set(self._claimed_roots)


def check_snapshot(snapshot: Snapshot) -> InvariantReport:
    """Run the full invariant suite against a machine image."""
    return run_invariants(SnapshotEvidence(snapshot))
