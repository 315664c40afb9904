"""Co-runner that measures how fast the benchmark's CPU runs, while it runs.

On the shared 2-vCPU x86_64 VM of the reference figures (bench/README.md),
each vCPU changes speed with the host's load on its own, by up to 2x, in
phases of seconds to minutes.  Raw round times of the same code spread by
20-30 % from run to run there.  A reference loop timed
before and after a round, or on the other vCPU, tracks that speed poorly
(correlation 0.5-0.7 with the round time).

The co-runner is a second process pinned to the same CPU as the measuring
process, at nice 10, so it gets about a tenth of the CPU in scheduler slices
spread over the whole round.  It runs a fixed chunk of small numpy operations
and pure-Python arithmetic over and over and publishes, after every chunk,
the number of chunks done and its own CPU time in a small shared file.  Its
chunks per CPU second sample the CPU's speed at the same moments as the
workload (correlation 0.96-0.99 with the round's CPU time).  A span's times
are scaled to REFERENCE_RATE chunks per CPU second, and the co-runner's own
CPU time is taken out of the span's wall time first.

    co = CoRunner(workdir)      # call after pinning this process to one CPU
    a = co.read(); ... work ...; b = co.read()
    wall_ref, cpu_ref, co_cpu, speed = co.scale(a, b, wall, cpu)
    co.close()
"""

import mmap
import os
import struct
import subprocess
import sys
import time

NICE = 10                  # share of the CPU: weight 110 against 1024
REFERENCE_RATE = 16000.0   # chunks per CPU second that define the reference speed
MIN_CHUNKS = 200           # fewer chunks in a span leave its speed unmeasured
_FMT = "<qd"               # chunks done, co-runner CPU seconds
_SIZE = struct.calcsize(_FMT)
START_TIMEOUT_S = 60.0


def serve(path, parent):
    """Co-runner main loop: one chunk, then publish, until the parent is gone."""
    os.nice(NICE)
    import numpy as np
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    z = np.array([1.0, 0.5])
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), _SIZE)
    n = 0
    while True:
        for _ in range(5):
            k = A @ z
            z = z + 1e-3 * k
            z = z / float(np.sqrt(z @ z))
        x0, x1 = 0.1, 0.2
        for _ in range(300):
            x0, x1 = x0 * 0.999 + x1 * 0.001, x1 * 0.999 - x0 * 0.001
        n += 1
        shared[:_SIZE] = struct.pack(_FMT, n, time.process_time())
        if n % 1000 == 0 and os.getppid() != parent:
            return


class CoRunner:
    def __init__(self, workdir):
        self.path = os.path.join(workdir, "co_runner.bin")
        with open(self.path, "wb") as fh:
            fh.write(bytes(_SIZE))
        # the child inherits this process's CPU affinity
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path, str(os.getpid())])
        try:
            with open(self.path, "r+b") as fh:
                self.shared = mmap.mmap(fh.fileno(), _SIZE)
            deadline = time.monotonic() + START_TIMEOUT_S
            while self.read()[0] < MIN_CHUNKS:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"co-runner did not start (exit {self.proc.poll()})")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def read(self):
        """(chunks done, co-runner CPU seconds); read twice to skip a torn write."""
        while True:
            a = self.shared[:_SIZE]
            if a == self.shared[:_SIZE]:
                return struct.unpack(_FMT, a)

    def scale(self, a, b, wall, cpu):
        """A span's wall and CPU seconds at the reference speed, the co-runner's
        CPU seconds in the span and the speed factor, from the co-runner
        snapshots a and b taken at the span's ends.  The wall time loses the
        co-runner's CPU time before it is scaled."""
        chunks, co_cpu = b[0] - a[0], b[1] - a[1]
        if chunks < MIN_CHUNKS:
            raise RuntimeError(f"co-runner ran {chunks} chunks in a {wall:.3f} s span")
        speed = chunks / co_cpu / REFERENCE_RATE
        return (wall - co_cpu) * speed, cpu * speed, co_cpu, speed

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        shared = getattr(self, "shared", None)
        if shared is not None:
            shared.close()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
