"""Property-based tests on types, IOTLB, mesh, NoC and crypto invariants."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import DmaRequest, PACKET_BYTES, PAGE_SIZE, World, pages_of_range
from repro.errors import NoCAuthError
from repro.memory.pagetable import PageTableEntry
from repro.mmu.iommu import IOTLB
from repro.monitor.crypto import mac, measure, stream_cipher, verify_mac
from repro.noc.mesh import Mesh
from repro.noc.router import NoCFabric, NoCPolicy


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------
@given(st.integers(0, 1 << 40), st.integers(1, 1 << 20))
@settings(max_examples=200, deadline=None)
def test_pages_cover_range_exactly(base, size):
    pages = pages_of_range(base, size)
    assert pages[0] == base // PAGE_SIZE
    assert pages[-1] == (base + size - 1) // PAGE_SIZE
    assert pages == list(range(pages[0], pages[-1] + 1))


@given(
    st.integers(0, 1 << 30),
    st.integers(1, 64),
    st.integers(1, 512),
    st.integers(0, 8192),
)
@settings(max_examples=200, deadline=None)
def test_request_geometry_consistent(vaddr, rows, row_bytes, extra_stride):
    stride = row_bytes + extra_stride
    req = DmaRequest(
        vaddr=vaddr,
        size=rows * row_bytes,
        is_write=False,
        rows=rows,
        row_bytes=row_bytes,
        row_stride=stride,
    )
    ranges = req.row_ranges()
    assert len(ranges) == rows
    # Rows never overlap (stride >= row_bytes).
    for (a, asz), (b, _bsz) in zip(ranges, ranges[1:]):
        assert a + asz <= b
    # Packet count covers all bytes.
    assert req.num_packets * PACKET_BYTES >= req.size


# ----------------------------------------------------------------------
# IOTLB vs a reference LRU model
# ----------------------------------------------------------------------
@given(
    st.integers(1, 8),
    st.lists(st.integers(0, 15), min_size=1, max_size=200),
)
@settings(max_examples=200, deadline=None)
def test_iotlb_matches_reference_lru(entries, accesses):
    tlb = IOTLB(entries)
    reference: "OrderedDict[int, int]" = OrderedDict()
    ref_misses = 0
    for page in accesses:
        if page in reference:
            reference.move_to_end(page)
        else:
            ref_misses += 1
            if len(reference) >= entries:
                reference.popitem(last=False)
            reference[page] = page
        if tlb.lookup(page) is None:
            tlb.insert(page, PageTableEntry(ppage=page))
    assert tlb.misses == ref_misses
    assert tlb.occupancy == len(reference)


# ----------------------------------------------------------------------
# Mesh
# ----------------------------------------------------------------------
@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_mesh_path_length_matches_hops(rows, cols, data):
    mesh = Mesh(rows, cols)
    src = data.draw(st.integers(0, mesh.size - 1))
    dst = data.draw(st.integers(0, mesh.size - 1))
    path = mesh.path(src, dst)
    assert len(path) == mesh.hops(src, dst) + 1
    assert path[0] == src and path[-1] == dst
    # Every step is one hop.
    for a, b in zip(path, path[1:]):
        assert mesh.hops(a, b) == 1


@given(st.integers(2, 5), st.integers(2, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_rectangle_detection_matches_bruteforce(rows, cols, data):
    mesh = Mesh(rows, cols)
    r = data.draw(st.integers(1, rows))
    c = data.draw(st.integers(1, cols))
    r0 = data.draw(st.integers(0, rows - r))
    c0 = data.draw(st.integers(0, cols - c))
    ids = [
        mesh.core_id(r0 + dr, c0 + dc) for dr in range(r) for dc in range(c)
    ]
    assert mesh.is_rectangle(ids, r, c)
    # A permutation is still the same rectangle.
    assert mesh.is_rectangle(list(reversed(ids)), r, c)
    # Dropping a corner breaks it (unless it is a single cell).
    if len(ids) > 1:
        assert not mesh.is_rectangle(ids[:-1], r, c)


@given(
    st.integers(1, 4), st.integers(1, 4), st.sampled_from(NoCPolicy),
    st.integers(1, 8), st.integers(1, 64), st.data(),
)
@settings(max_examples=200, deadline=None)
def test_fabric_transfer_is_its_closed_form(rows, cols, policy, hop_cycles,
                                            flit_bytes, data):
    """A packet costs its hops plus one cycle per flit and moves the
    cursor by exactly that; a rejected one stops it at head arrival."""
    fabric = NoCFabric(Mesh(rows, cols), policy, hop_cycles, flit_bytes)
    core = st.integers(0, fabric.mesh.size - 1)
    for secure in data.draw(st.sets(core)):
        fabric.routers[secure].set_world(World.SECURE, issuer=World.SECURE)
    for _ in range(data.draw(st.integers(1, 6))):
        src, dst = data.draw(core), data.draw(core)
        nbytes = data.draw(st.integers(0, 1 << 16))
        start = fabric.now
        expected = fabric.latency_cycles(src, dst, nbytes)
        try:
            latency = fabric.transfer(src, dst, nbytes)
        except NoCAuthError:
            assert policy is NoCPolicy.PEEPHOLE
            assert fabric.now == start + fabric.mesh.hops(src, dst) * hop_cycles
        else:
            assert latency == expected
            assert fabric.now == start + expected


# ----------------------------------------------------------------------
# Crypto
# ----------------------------------------------------------------------
@given(st.binary(min_size=1, max_size=64), st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_cipher_roundtrip(key, data):
    assert stream_cipher(key, stream_cipher(key, data)) == data


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=512))
@settings(max_examples=100, deadline=None)
def test_mac_roundtrip_and_tamper(key, data):
    tag = mac(key, data)
    assert verify_mac(key, data, tag)
    assert not verify_mac(key, data + b"x", tag)


@given(st.binary(max_size=512))
@settings(max_examples=100, deadline=None)
def test_measurement_deterministic(blob):
    assert measure(blob) == measure(blob)
    assert len(measure(blob)) == 32

