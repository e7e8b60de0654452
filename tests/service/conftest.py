"""Shared helpers for the service tests."""

import threading

import pytest

WAIT = 10.0


class BlockedFlush:
    """Hold a service's coalescer inside ``_flush`` until released.

    The coalescer is work-conserving: it never waits for company, so a
    request only waits in the admission queue while a flush occupies
    the coalescer thread.  Pinning a flush is how a test lines requests
    (and drain/close tokens) up to be drained together, without timers.
    """

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._service = service
        original = service._flush

        def blocked(bucket, reason):
            self.entered.set()
            assert self.release.wait(WAIT)
            original(bucket, reason)

        service._flush = blocked

    def release_after_next_token(self) -> None:
        """Release once the next ``drain()``/``close()`` token is queued.

        Everything queued behind the pinned flush is then drained in the
        same pass as that token, so it leaves as ``flush_drain``.
        """
        admission = self._service._queue
        put_control = admission.put_control

        def put_then_release(token):
            put_control(token)
            self.release.set()

        admission.put_control = put_then_release


@pytest.fixture
def blocked_flush():
    """:class:`BlockedFlush`, for tests that pin the coalescer."""
    return BlockedFlush
