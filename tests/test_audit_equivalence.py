"""The bulk-read invariant audit equals a per-word reference audit.

``run_invariants`` reads each table page whole and scans only the
non-zero words of the MBM bitmap.  A reference ``Evidence`` whose bulk
reads loop over ``peek`` one word at a time must produce an identical
``InvariantReport`` — same findings in the same order, same counters —
on both verification channels, in clean, attacked and corrupted states.
The bitmap check is further compared with a transcription of the
historical word-by-word loop over the whole bitmap.
"""

import pytest

from repro.attacks import FUZZABLE_ATTACKS
from repro.arch.pagetable import make_table_desc
from repro.config import PAGE_WORDS, WORD_BYTES
from repro.core.audit import LiveEvidence
from repro.core.hypernel import build_hypernel
from repro.hw.memory import _CHUNK_BYTES, PhysicalMemory
from repro.kernel.kernel import KernelConfig
from repro.kernel.objects import CRED
from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
from repro.security.fuzz.invariants import InvariantReport, run_invariants
from repro.security.fuzz.machine import boot_snapshot
from repro.security.fuzz.snapshot_checker import SnapshotEvidence
from repro.state import capture_snapshot, restore_from_snapshot
from tests.helpers import small_config


class PerWordReads:
    """Bulk reads rebuilt from one ``peek`` per word."""

    def read_page(self, paddr):
        return [self.peek(paddr + index * WORD_BYTES)
                for index in range(PAGE_WORDS)]

    def nonzero_words(self, base, limit):
        words = ((addr, self.peek(addr))
                 for addr in range(base, limit, WORD_BYTES))
        return [(addr, value) for addr, value in words if value]


class PerWordLive(PerWordReads, LiveEvidence):
    pass


class PerWordSnapshot(PerWordReads, SnapshotEvidence):
    pass


def historical_bitmap_check(evidence) -> InvariantReport:
    """The bitmap loop as it read before the sparse scan: every word of
    the storage, one ``peek`` each."""
    report = InvariantReport()
    expected = evidence.expected_bitmap()
    base, limit = evidence.bitmap_storage()
    for word_addr in range(base, limit, WORD_BYTES):
        actual = evidence.peek(word_addr)
        wanted = expected.get(word_addr, 0)
        if actual != wanted:
            report.add(
                "BITMAP_CONSISTENT", word_addr,
                f"bitmap word is {actual:#x}, regions imply {wanted:#x}")
        if actual or wanted:
            report.bitmap_words_checked += 1
    return report


def assert_reports_match(system) -> InvariantReport:
    """Both channels equal their per-word references; returns the live
    report."""
    hypersec = system.hypersec
    live = run_invariants(LiveEvidence(hypersec))
    assert live == run_invariants(PerWordLive(hypersec))

    evidence = LiveEvidence(hypersec)
    old = historical_bitmap_check(evidence)
    assert [f for f in live.findings
            if f.invariant == "BITMAP_CONSISTENT"] == old.findings
    assert live.bitmap_words_checked == old.bitmap_words_checked

    snapshot = capture_snapshot(system)
    offline = run_invariants(SnapshotEvidence(snapshot))
    assert offline == run_invariants(PerWordSnapshot(snapshot))
    assert (SnapshotEvidence(snapshot).monitored_pages()
            == PerWordSnapshot(snapshot).monitored_pages())
    return live


def fresh_system(profile):
    return restore_from_snapshot(boot_snapshot(profile))


def has_finding(report, invariant, location):
    return any(f.invariant == invariant and f.location == location
               for f in report.findings)


@pytest.mark.parametrize("profile", ["section", "page"])
def test_clean_boot(profile):
    report = assert_reports_match(fresh_system(profile))
    assert report.clean and report.bitmap_words_checked > 0


@pytest.mark.parametrize("name", sorted(FUZZABLE_ATTACKS))
def test_after_attack(name):
    system = fresh_system("section")
    FUZZABLE_ATTACKS[name]().mount(system)
    assert_reports_match(system)


class TestCorruptedStates:
    @pytest.fixture
    def system(self):
        return fresh_system("section")

    def test_stray_bit_in_never_written_chunk(self, system):
        base, limit = system.mbm.bitmap_storage
        dram_base = system.platform.config.dram_base
        chunks = system.platform.memory._locate(base)
        word_addr = next(
            addr + _CHUNK_BYTES // 2
            for addr in range(base, limit, _CHUNK_BYTES)
            if (addr - dram_base) // _CHUNK_BYTES not in chunks)
        system.platform.bus.poke(word_addr, 1 << 17)
        report = assert_reports_match(system)
        assert has_finding(report, "BITMAP_CONSISTENT", word_addr)

    @pytest.mark.parametrize("cleared", ["one bit", "whole word"])
    def test_cleared_expected_bit(self, system, cleared):
        """Clearing the whole word leaves a zero stored word that only
        the expected side of the scan can reach."""
        init = system.kernel.procs.current
        word_addr, bit = system.mbm.bitmap.locate(
            init.cred_pa + CRED.field("uid").byte_offset)
        raw = system.platform.bus.peek(word_addr)
        keep = raw & ~(1 << bit) if cleared == "one bit" else 0
        system.platform.bus.poke(word_addr, keep)
        report = assert_reports_match(system)
        assert has_finding(report, "BITMAP_CONSISTENT", word_addr)

    def test_bit_in_last_bitmap_word(self, system):
        _base, limit = system.mbm.bitmap_storage
        word_addr = limit - WORD_BYTES
        system.platform.bus.poke(word_addr, 1 << 63)
        report = assert_reports_match(system)
        assert has_finding(report, "BITMAP_CONSISTENT", word_addr)

    @pytest.mark.parametrize("target", ["unbacked", "secure"])
    def test_hostile_table_pointer(self, system, target):
        platform = system.platform
        child = (platform.config.dram_base + platform.config.dram_bytes
                 + (1 << 30) if target == "unbacked"
                 else platform.secure_base)
        pgd = system.kernel.procs.current.mm.pgd
        slot = pgd + 301 * WORD_BYTES
        platform.bus.poke(slot, make_table_desc(child))
        report = assert_reports_match(system)
        assert has_finding(report, "TABLE_TOPOLOGY", slot)
        assert report.truncated_walks > 0


def _post_boot_audit_reads(monkeypatch, dram_mb: int) -> int:
    system = build_hypernel(
        platform_config=small_config(dram_bytes=dram_mb << 20),
        kernel_config=KernelConfig(linear_map_mode="section"),
        monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
    )
    system.spawn_init()
    calls = [0]
    read_word = PhysicalMemory.read_word

    def counting(memory, paddr):
        calls[0] += 1
        return read_word(memory, paddr)

    with monkeypatch.context() as patch:
        patch.setattr(PhysicalMemory, "read_word", counting)
        report = system.hypersec.audit()
    assert report.clean and report.bitmap_words_checked > 0
    return calls[0]


def test_post_boot_audit_reads_do_not_grow_with_dram(monkeypatch):
    """The audit's per-word reads follow the table and monitored pages,
    not the size of the bitmap, so doubling DRAM adds none."""
    assert (_post_boot_audit_reads(monkeypatch, 128)
            <= _post_boot_audit_reads(monkeypatch, 64))
