"""Property-based test of the core isolation invariant (§IV-B).

Whatever sequence of writes, reads, resets and flushes two worlds perform
on an ID-protected scratchpad, the normal world can never read back a
byte the secure world wrote — unless a secure-world reset (which scrubs)
happened in between.

A shadow model of every line's ID bit and byte tracks the script; after
each op, the allowed/denied outcome, ``secure_lines`` and the physical
bytes (``raw_peek``) must match it.  The payload and ID arrays are
allocated lazily, so scripts that scrub, flush or securely read first
exercise the never-allocated states.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.types import World
from repro.errors import ScratchpadIsolationError
from repro.npu.scratchpad import Scratchpad, SpadIsolationMode

LINES = 32
LINE_BYTES = 16
SECURE_BYTE = 0xA5
NORMAL_BYTE = 0x11

OPS = ["write_s", "write_n", "read_s", "read_n", "reset", "flush"]


@st.composite
def spad_script(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, LINES - 1),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return ops


def _allowed(op, ids, shared):
    """Whether the shadow model lets *op* touch lines tagged *ids*."""
    if op == "read_s":
        return shared or all(ids)
    if op == "read_n" or (op == "write_n" and shared):
        return not any(ids)
    return True  # secure writes, local normal writes, resets, flushes


@given(spad_script(), st.booleans())
@example([("reset", 0, 8), ("flush", 0, 1), ("write_n", 4, 2)], False)
@example([("read_s", 3, 4), ("read_n", 0, 8), ("reset", 4, 1)], True)
@settings(max_examples=300, deadline=None)
def test_normal_world_never_reads_secure_bytes(script, shared):
    spad = Scratchpad(
        LINES, LINE_BYTES, mode=SpadIsolationMode.ID_BASED, shared=shared
    )
    shadow_ids = [0] * LINES
    shadow_bytes = [0] * LINES
    for op, line, span in script:
        nlines = min(span, LINES - line)
        lines = range(line, line + nlines)
        allowed = _allowed(op, [shadow_ids[i] for i in lines], shared)
        try:
            if op in ("write_s", "write_n"):
                world = World.SECURE if op == "write_s" else World.NORMAL
                byte = SECURE_BYTE if op == "write_s" else NORMAL_BYTE
                spad.write(
                    line, np.full((nlines, LINE_BYTES), byte, np.uint8), world
                )
                for i in lines:
                    shadow_ids[i], shadow_bytes[i] = int(world), byte
            elif op == "reset":
                spad.reset_secure(line, nlines, issuer=World.SECURE)
                for i in lines:
                    shadow_ids[i], shadow_bytes[i] = 0, 0
            elif op == "flush":
                assert spad.flush_all() == LINES
                shadow_ids, shadow_bytes = [0] * LINES, [0] * LINES
            else:
                world = World.SECURE if op == "read_s" else World.NORMAL
                data = spad.read(line, nlines, world)
                assert [int(row[0]) for row in data] == [
                    shadow_bytes[i] for i in lines
                ]
                if world is World.NORMAL:
                    # THE invariant: an allowed normal-world read never
                    # returns a secure byte.
                    assert not (data == SECURE_BYTE).any()
                elif shared:
                    for i in lines:
                        shadow_ids[i] = 1  # secure reads promote lines
        except ScratchpadIsolationError:
            assert not allowed, f"{op} at [{line}, +{nlines}) was refused"
        else:
            assert allowed, f"{op} at [{line}, +{nlines}) was let through"
        assert spad.secure_lines == sum(shadow_ids)
        peek = spad.raw_peek(0, LINES)
        assert (peek == np.array(shadow_bytes, np.uint8)[:, None]).all()

    # ID state is consistent with the last writer of every line at all
    # times: secure lines are exactly those whose content is secure or
    # were promoted; either way the normal world still can't read them.
    for line in range(LINES):
        if spad.id_state[line]:
            try:
                data = spad.read(line, 1, World.NORMAL)
            except ScratchpadIsolationError:
                continue
            raise AssertionError("secure-tagged line readable by normal world")


@given(st.integers(0, LINES - 1), st.integers(1, LINES))
@settings(max_examples=100, deadline=None)
def test_reset_always_scrubs(line, span):
    nlines = min(span, LINES - line)
    spad = Scratchpad(LINES, LINE_BYTES, mode=SpadIsolationMode.ID_BASED)
    spad.write(
        line, np.full((nlines, LINE_BYTES), SECURE_BYTE, np.uint8), World.SECURE
    )
    spad.reset_secure(line, nlines, issuer=World.SECURE)
    data = spad.read(line, nlines, World.NORMAL)
    assert (data == 0).all()
