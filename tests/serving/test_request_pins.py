"""The request stream and its micro-batches, pinned across formats.

``fixtures/request_pins.json`` was written by
``fixtures/make_request_pins.py`` at the commit before a request stored
its ids as one row (when it held one array per table).  The generator
must draw the same requests, and :func:`coalesce_requests` must build
the same batches from them, whatever a request holds inside.
"""

import json
from pathlib import Path

import pytest

from tests.serving.fixtures.make_request_pins import (
    STREAMS,
    batch_digest,
    request_digest,
    stream,
)

PINS = json.loads((Path(__file__).parent / "fixtures" / "request_pins.json").read_text())


def test_pins_cover_every_stream():
    assert sorted(PINS) == sorted(STREAMS)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_and_batches_are_the_parents(name):
    requests = stream(name)
    assert request_digest(requests) == PINS[name]["requests"]
    assert batch_digest(requests) == PINS[name]["batches"]
