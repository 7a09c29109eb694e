"""Contiguous ranges of items run in forked processes.

A sharded step cuts items 0..n-1 into contiguous shards (`cuts`) and runs
each in its own process (`run`): shard 0 in this one, every other in a
forked child.  Children hand their results back through memory shared
with this process (`shared_array`) or through files.  `limit` caps the
processes of every step run inside it and tallies them; the CLI's
`--threads` sets that cap.

This module imports no numpy at load time: the CLI imports it before it
sets the BLAS variables.
"""

import contextlib
import math
import mmap
import os
import signal
import traceback
from dataclasses import dataclass


@dataclass
class Tally:
    """The sharded steps run under one `limit`: `cap`, the most processes a
    step may use (None for no cap), `shards`, the most that one step used,
    and `peak_kib`, the largest peak RSS of a forked shard in KiB (0 when
    none was forked)."""
    cap: int = None
    shards: int = 0
    peak_kib: int = 0


_tally = Tally()


@contextlib.contextmanager
def limit(cap):
    """Run the block with at most `cap` processes per step (no cap when
    None); yield the `Tally` of its steps."""
    global _tally
    outer, _tally = _tally, Tally(cap)
    try:
        yield _tally
    finally:
        _tally = outer


def cuts(n, min_per_shard, step=1):
    """The bounds 0 = c_0 < c_1 < ... < c_count = n of the shards of n
    items: as many shards as the CPUs this process may run on, the cap of
    the enclosing `limit`, n // min_per_shard and the `step`-item blocks,
    whichever is fewest, and one at least.  Inner bounds fall on multiples
    of `step`, counted from item 0."""
    blocks = -(-n // step)
    count = max(1, min(len(os.sched_getaffinity(0)), _tally.cap or blocks,
                       n // min_per_shard, blocks))
    return [step * (blocks * k // count) for k in range(count)] + [n]


def shared_array(shape):
    """A zeroed float64 array in anonymous memory shared with the children
    forked after it is made, so their writes to it are seen here.  The
    mapping is freed with the last array that views it."""
    import numpy as np

    size = 8 * math.prod(shape)
    return np.ndarray(shape, buffer=mmap.mmap(-1, max(size, 1)))


def run(bounds, work, label):
    """Call work(k, bounds[k], bounds[k + 1]) for each shard k, shard 0 in
    this process and every other in a forked child; return shard 0's result.

    The children are forked before shard 0 runs.  Each ends with
    `os._exit`, status 0 once its work returns and 1 after writing the
    traceback straight to fd 2, so it never returns into the caller nor
    flushes stdio buffers inherited from this process.  This process reaps
    them in order with `os.wait4`; a failed one raises ChildProcessError
    naming the shard and its range of `label`.  However the call ends, no
    child is left running or unreaped.  One shard forks nothing.
    """
    count = len(bounds) - 1
    children = {}
    try:
        for k in range(1, count):
            pid = os.fork()
            if pid == 0:
                _child(work, k, bounds[k], bounds[k + 1])
            children[k] = pid
        result = work(0, bounds[0], bounds[1])
        for k in range(1, count):
            _, status, usage = os.wait4(children[k], 0)
            del children[k]
            if status:
                raise ChildProcessError(
                    f"shard {k} of {count} ({label} {bounds[k]} to "
                    f"{bounds[k + 1] - 1}) failed with exit status "
                    f"{os.waitstatus_to_exitcode(status)}")
            _tally.peak_kib = max(_tally.peak_kib, usage.ru_maxrss)
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    _tally.shards = max(_tally.shards, count)
    return result


def _child(work, k, lo, hi):
    """In a forked shard: run its work, then end the process."""
    status = 1
    try:
        work(k, lo, hi)
        status = 0
    except BaseException:
        # the process ends below whatever was raised; the traceback goes
        # straight to fd 2, past any buffer the parent left in sys.stderr
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)
