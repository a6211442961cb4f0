"""Unit tests for per-color runtime state (counters, timestamps)."""

import pytest

from repro.core.job import Job
from repro.simulation.state import ColorState


def make_state(bound=4):
    return ColorState(color=0, delay_bound=bound)


class TestPendingQueue:
    """Pending work is a count; taken and dropped jobs come back as
    offsets into the color's last arrival batch, in FIFO order."""

    def test_idle_reflects_pending(self):
        st = make_state()
        assert st.idle
        st.pending = st.arrived = 1
        assert not st.idle

    def test_take_pending_fifo(self):
        st = make_state()
        st.batch = [Job(0, 0, 4, i) for i in range(3)]
        st.pending = st.arrived = 3
        taken = st.take_pending(2)
        assert [st.batch[i].jid for i in taken] == [0, 1]
        assert st.pending == 1
        assert [st.batch[i].jid for i in st.take_pending(2)] == [2]

    def test_take_more_than_available(self):
        st = make_state()
        st.pending = st.arrived = 1
        assert len(st.take_pending(5)) == 1
        assert st.idle

    def test_clear_pending_returns_all(self):
        st = make_state()
        st.pending = st.arrived = 3
        st.take_pending(1)
        dropped = st.clear_pending()
        assert list(dropped) == [1, 2]
        assert st.idle


class TestWrapHistory:
    def test_wraps_recorded_in_order(self):
        st = make_state()
        st.record_wrap(4)
        st.record_wrap(8)
        assert st.prev_wrap == 4
        assert st.last_wrap == 8

    def test_out_of_order_wrap_rejected(self):
        st = make_state()
        st.record_wrap(8)
        with pytest.raises(ValueError):
            st.record_wrap(4)

    def test_same_round_wrap_idempotent(self):
        st = make_state()
        st.record_wrap(4)
        st.record_wrap(4)
        assert st.last_wrap == 4
        assert st.prev_wrap is None


class TestTimestamps:
    """The Section 3.1.1 timestamp definition: latest wrap strictly before
    the most recent integral multiple of the delay bound."""

    def test_no_wraps_means_zero(self):
        assert make_state().timestamp(10) == 0

    def test_wrap_not_visible_until_next_multiple(self):
        st = make_state(bound=4)
        st.record_wrap(4)
        # At rounds 4..7, the most recent multiple is 4; the wrap at 4 is
        # not strictly before it, so the timestamp stays 0.
        assert st.timestamp(4) == 0
        assert st.timestamp(7) == 0
        # From round 8 the multiple is 8 and the wrap at 4 counts.
        assert st.timestamp(8) == 4
        assert st.timestamp(11) == 4

    def test_two_wraps_pick_latest_eligible(self):
        st = make_state(bound=4)
        st.record_wrap(4)
        st.record_wrap(12)
        assert st.timestamp(12) == 4  # wrap at 12 not yet visible
        assert st.timestamp(16) == 12

    def test_timestamp_monotone_in_time(self):
        st = make_state(bound=4)
        st.record_wrap(4)
        values = [st.timestamp(now) for now in range(0, 20)]
        assert values == sorted(values)
