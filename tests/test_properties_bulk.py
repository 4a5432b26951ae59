"""Property tests: vectorized bulk memory paths vs word-at-a-time models.

The bulk fast paths (``PhysicalMemory.fill``/``copy_words``/
``read_words``/``nonzero_words``, ``Caches.touch_block``'s batched
streaming-store loop, ``MemoryBus.write_block``'s coalesced bitmap
scan, the table-alias bisect) are pure optimizations: each must be
observationally identical to the word-at-a-time (or line-at-a-time)
reference it replaced — same bytes, same cycle charges, same bus-snoop
events.  These properties drive randomized op sequences through both
and compare everything, with the generators biased toward the edges
that historically break such code: chunk boundaries, cache-line
boundaries, range ends and monitored pages.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.pagetable import (
    LEVEL_SPAN,
    Descriptor,
    make_block_desc,
    make_page_desc,
)
from repro.errors import MemoryRangeError
from repro.hw.memory import _CHUNK_BYTES, PhysicalMemory
from repro.security.fuzz.invariants import (
    _SCAN_CAP,
    NO_WRITABLE_TABLE_ALIAS,
    TablePages,
)
from tests.helpers import small_platform

WORD = 8
BASE = 0x8000_0000
CHUNK_WORDS = _CHUNK_BYTES // WORD

# ----------------------------------------------------------------------
# PhysicalMemory bulk ops vs per-word reference
# ----------------------------------------------------------------------
#: Two adjacent ranges: runs crossing BASE + RANGE_BYTES exercise the
#: leave-the-range fallback inside fill/copy/read_words.
RANGE_BYTES = 2 * _CHUNK_BYTES
WINDOW_WORDS = 2 * RANGE_BYTES // WORD


def _dual_memory():
    mem = PhysicalMemory()
    mem.add_range(BASE, RANGE_BYTES)
    mem.add_range(BASE + RANGE_BYTES, RANGE_BYTES)
    return mem


#: Offsets biased toward chunk and range boundaries.
_edge_offsets = st.one_of(
    st.integers(0, WINDOW_WORDS - 1),
    st.builds(
        lambda boundary, jitter: max(
            0, min(WINDOW_WORDS - 1, boundary + jitter)
        ),
        st.sampled_from(
            [CHUNK_WORDS, 2 * CHUNK_WORDS, 3 * CHUNK_WORDS, WINDOW_WORDS]
        ),
        st.integers(-3, 3),
    ),
)

_mem_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("fill"), _edge_offsets, st.integers(1, 3 * CHUNK_WORDS),
            st.sampled_from([0, 1, 0xDEAD_BEEF_0BAD_F00D, (1 << 64) - 1]),
        ),
        st.tuples(
            st.just("copy"), _edge_offsets, _edge_offsets,
            st.integers(1, CHUNK_WORDS),
        ),
        st.tuples(
            st.just("write"), _edge_offsets,
            st.integers(0, (1 << 64) - 1), st.just(0),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestPhysicalMemoryBulkOps:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_mem_ops, st.data())
    def test_bulk_ops_match_word_loop(self, ops, data):
        fast = _dual_memory()
        ref = _dual_memory()
        for op in ops:
            if op[0] == "fill":
                _, off, n, value = op
                n = min(n, WINDOW_WORDS - off)
                fast.fill(BASE + off * WORD, n, value)
                for i in range(n):
                    ref.write_word(BASE + (off + i) * WORD, value)
            elif op[0] == "copy":
                _, src, dst, n = op
                n = min(n, WINDOW_WORDS - src, WINDOW_WORDS - dst)
                if n <= 0 or abs(src - dst) < n:
                    continue  # copy_words requires non-overlapping runs
                fast.copy_words(BASE + src * WORD, BASE + dst * WORD, n)
                for i in range(n):
                    ref.write_word(
                        BASE + (dst + i) * WORD,
                        ref.read_word(BASE + (src + i) * WORD),
                    )
            else:
                _, off, value, _ = op
                fast.write_word(BASE + off * WORD, value)
                ref.write_word(BASE + off * WORD, value)

        # Bulk read vs per-word read, on both memories, over spans the
        # generator points at boundaries.
        for _ in range(4):
            off = data.draw(_edge_offsets)
            n = min(data.draw(st.integers(1, 3 * CHUNK_WORDS)),
                    WINDOW_WORDS - off)
            span = fast.read_words(BASE + off * WORD, n)
            assert span == [
                ref.read_word(BASE + (off + i) * WORD) for i in range(n)
            ]
        # Full-window byte equality between the two histories.
        assert (fast.read_words(BASE, WINDOW_WORDS)
                == ref.read_words(BASE, WINDOW_WORDS))

    def test_zero_fill_stays_sparse(self):
        mem = _dual_memory()
        mem.fill(BASE, WINDOW_WORDS, 0)
        assert mem._chunk_maps == [{}, {}]
        assert mem.read_words(BASE, 4) == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# PhysicalMemory.nonzero_words vs a per-word read_word filter
# ----------------------------------------------------------------------
def _apply_mem_ops(mem, ops):
    for op in ops:
        if op[0] == "fill":
            _, off, n, value = op
            mem.fill(BASE + off * WORD, min(n, WINDOW_WORDS - off), value)
        elif op[0] == "copy":
            _, src, dst, n = op
            n = min(n, WINDOW_WORDS - src, WINDOW_WORDS - dst)
            if n > 0 and abs(src - dst) >= n:
                mem.copy_words(BASE + src * WORD, BASE + dst * WORD, n)
        else:
            mem.write_word(BASE + op[1] * WORD, op[2])


def _nonzero_reference(mem, paddr, nwords):
    """Per-word model: ``None`` when some word of the span is unbacked."""
    found = []
    for i in range(nwords):
        try:
            value = mem.read_word(paddr + i * WORD)
        except MemoryRangeError:
            return None
        if value:
            found.append((paddr + i * WORD, value))
    return found


#: Span starts a few words either side of the backed window, so some
#: spans begin or end in unbacked memory.
_span_offsets = st.one_of(
    _edge_offsets,
    st.integers(-4, -1),
    st.integers(WINDOW_WORDS - 4, WINDOW_WORDS + 4),
)


class TestNonzeroWords:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_mem_ops, st.lists(
        st.tuples(_span_offsets, st.integers(1, 3 * CHUNK_WORDS)),
        min_size=1, max_size=4))
    def test_matches_per_word_filter(self, ops, spans):
        mem = _dual_memory()
        _apply_mem_ops(mem, ops)
        for off, nwords in spans:
            paddr = BASE + off * WORD
            expected = _nonzero_reference(mem, paddr, nwords)
            if expected is None:
                with pytest.raises(MemoryRangeError):
                    mem.nonzero_words(paddr, nwords)
            else:
                assert mem.nonzero_words(paddr, nwords) == expected

    def test_absent_chunks_stay_absent(self):
        mem = _dual_memory()
        mem.write_word(BASE + RANGE_BYTES + 8, 7)
        assert mem.nonzero_words(BASE, WINDOW_WORDS) == [
            (BASE + RANGE_BYTES + 8, 7)]
        assert [len(chunks) for chunks in mem._chunk_maps] == [0, 1]

    def test_chunk_zeroed_after_write(self):
        mem = _dual_memory()
        mem.write_word(BASE + _CHUNK_BYTES - WORD, 1)
        mem.fill(BASE, CHUNK_WORDS, 0)
        assert mem._chunk_maps[0]  # materialized, now all zero
        assert mem.nonzero_words(BASE, WINDOW_WORDS) == []

    def test_unbacked_span_raises_before_any_result(self):
        mem = _dual_memory()
        mem.write_word(BASE, 1)
        with pytest.raises(MemoryRangeError):
            mem.nonzero_words(BASE, WINDOW_WORDS + 1)


# ----------------------------------------------------------------------
# NO_WRITABLE_TABLE_ALIAS: bisect over table pages vs per-page probe
# ----------------------------------------------------------------------
_SPAN_PAGES = 512  # a 2 MB block


class TestTableAliasBisect:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sets(st.integers(-8, 2 * _SPAN_PAGES), max_size=24),
        st.sets(st.integers(0, 2 * _SPAN_PAGES * 4096 // WORD), max_size=4),
        st.integers(0, _SPAN_PAGES),
        st.sampled_from([1, 2, 3]),
    )
    def test_findings_match_page_probe(self, pages, strays, first, level):
        page = 4096
        # Aligned table pages plus a few off-grid addresses, which a
        # per-page probe can never hit.
        table_pages = {BASE + p * page for p in pages}
        table_pages |= {BASE + s * WORD for s in strays}
        base = BASE + first * page
        if level < 3:
            # Block leaves; a level-1 span is capped at _SCAN_CAP.
            base &= ~(LEVEL_SPAN[level] - 1)
            desc = Descriptor(make_block_desc(base, writable=True))
        else:
            desc = Descriptor(make_page_desc(base, writable=True))
        end = min(base + LEVEL_SPAN[level], base + _SCAN_CAP)
        probed = [
            (0x40, f"writable mapping of table page {addr:#x}")
            for addr in range(base, end, page) if addr in table_pages
        ]
        for given_pages in (table_pages, TablePages(table_pages)):
            assert list(NO_WRITABLE_TABLE_ALIAS.violations(
                None, 0x40, level, desc, given_pages)) == probed


# ----------------------------------------------------------------------
# Caches.touch_block batched loop vs per-line reference
# ----------------------------------------------------------------------
class _RecordingSnooper:
    def __init__(self):
        self.txns = []

    def __call__(self, txn):
        self.txns.append((txn.kind, txn.paddr, txn.value, txn.nwords,
                          txn.initiator))


def _observable(platform):
    caches = platform.caches
    return (
        platform.clock.now,
        caches.l1.state_dict(),
        caches.l2.state_dict(),
        list(caches.l1._sets.items()),
        list(caches.l2._sets.items()),
        platform.bus.state_dict(),
        dict(platform.dram._open_rows),
    )


def _line_window(platform):
    line_bytes = platform.caches.l1.line_bytes
    return line_bytes, 512  # lines in the exercised window


_touch_ops = st.lists(
    st.tuples(
        st.booleans(),                # is_write
        st.integers(0, 511),          # line index in window
        st.integers(0, 7),            # word offset inside the line
        st.integers(1, 192),          # word count (spans several lines)
    ),
    min_size=1,
    max_size=20,
)

_warm_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 511)),
    max_size=24,
)


class TestTouchBlockAgainstPerLineReference:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_warm_ops, _touch_ops)
    def test_batched_path_matches_reference(self, warm, ops):
        fast_platform = small_platform()
        ref_platform = small_platform()
        recorders = []
        for platform in (fast_platform, ref_platform):
            rec = _RecordingSnooper()
            platform.bus.attach_snooper(rec)
            recorders.append(rec)

        for platform in (fast_platform, ref_platform):
            caches = platform.caches
            line_bytes = caches.l1.line_bytes
            for is_write, line_index in warm:
                paddr = BASE + line_index * line_bytes
                if is_write:
                    caches.write(paddr, 0x55, cacheable=True)
                else:
                    caches.read(paddr, cacheable=True)

        line_bytes = fast_platform.caches.l1.line_bytes
        for is_write, line_index, word_off, nwords in ops:
            paddr = BASE + line_index * line_bytes + word_off * WORD
            # Vectorized path.
            fast_platform.caches.touch_block(paddr, nwords, is_write)
            # Per-line reference path (the documented fallback).
            caches = ref_platform.caches
            first = paddr & caches._line_mask
            last = (paddr + (nwords - 1) * WORD) & caches._line_mask
            for line in range(first, last + 1, line_bytes):
                if is_write:
                    caches._install_dirty(line)
                else:
                    caches._ensure_resident(line, initiator="cpu")

        assert _observable(fast_platform) == _observable(ref_platform)
        assert recorders[0].txns == recorders[1].txns


# ----------------------------------------------------------------------
# Coalesced block-write bitmap scan vs per-word bitmap checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def storm_system():
    from repro.tools import perf
    from tests.test_tools_macroops import build_storm

    system, op = build_storm()
    for _ in range(8):  # populate pipeline, warm bitmap cache
        op()
    return system


class TestBlockWritesOverMonitoredPages:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    @given(st.integers(-520, 520), st.integers(1, 600))
    def test_block_capture_hits_match_per_word_bitmap(
        self, storm_system, start_off, nwords
    ):
        """``capture_block``'s coalesced ``words_for_range`` scan must
        flag exactly the words a per-word ``bitmap.locate`` walk flags —
        including spans straddling the monitored page's edges."""
        system = storm_system
        mbm = system.mbm
        init = system.kernel.procs.current
        anchor = init.cred_pa & ~7
        start = anchor + start_off * WORD
        peek = system.platform.bus.peek

        expected = 0
        for i in range(nwords):
            paddr = start + i * WORD
            if not mbm.bitmap.covers(paddr):
                continue
            word_addr, bit = mbm.bitmap.locate(paddr)
            if (peek(word_addr) >> bit) & 1:
                expected += 1

        before = mbm.decision._checked, mbm.decision._hits
        system.platform.bus.write_block(start, nwords, initiator="cpu")
        after = mbm.decision._checked, mbm.decision._hits
        assert after[1] - before[1] == expected
