"""Data-stream environment (the paper's Sec. 1/2 motivation).

A data stream management system samples for two reasons the paper cites:
bounding state for whole-stream statistics, and load shedding.  This
subpackage provides synthetic stream sources and a sampling operator whose
online path is exactly the paper's log phase -- cheap enough for high
arrival rates -- while refresh runs out-of-band ("the refresh may be
conducted by an independent system which has access to the log file,
thereby not affecting online processing", Sec. 6).
"""

from repro.stream.source import (
    StreamSource,
    counter_stream,
    uniform_stream,
    zipf_stream,
    bursty_stream,
    uniform_batches,
)
from repro.stream.operator import StreamSampleOperator

__all__ = [
    "StreamSource",
    "counter_stream",
    "uniform_stream",
    "zipf_stream",
    "bursty_stream",
    "uniform_batches",
    "StreamSampleOperator",
]
