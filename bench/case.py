"""Run one ``bgg`` job in a fresh process, as a user's call would run it.

Usage: python3 case.py FD MODE BGG_ARGV...

MODE is ``setup`` (stop once the job is parsed), ``run`` (size probes only)
or ``trace`` (size probes and layer spans). The job goes through the public
entry ``artifact.bggcli.main``, whose output and exit status are this
process's own. When the job ends, one JSON object is written to the
inherited file descriptor FD:

* ``ready``: ``time.monotonic()`` once ``artifact.bggcli`` is imported and
  the job is parsed. On Linux that clock is shared between processes, so the
  parent turns it into set-up time.
* ``chunk_s``: the mean time of the host-speed sampler's chunk (below).
* ``artifact``: the file the package was imported from.
* ``backend``: the live scalar type, ``type(artifact.linalg.QONE)``.
* ``python``: the interpreter version.
* ``sizes`` and ``spans``: see ``tracer.py``.

Host-speed sampler: the speed of a shared host drifts by up to 1.8x within
minutes, and every time the process takes drifts with it. Every
``SAMPLE_EVERY_S`` of this process's CPU time, a SIGPROF handler times a
fixed chunk of Fraction arithmetic, the program's own kind of work. The
chunk's mean time measures the host's speed over exactly the interval the
job ran in, so the parent can rescale the job's times to a reference speed.
The chunks cost about 2 % of the CPU time. Never change the chunk: it
defines the unit of every reported time.
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.01
_OPERANDS = [Fraction(i + 1, 2 * i + 3) for i in range(64)]


class HostSpeedSampler:
    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        signal.signal(signal.SIGPROF, self._chunk)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _chunk(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = {}
        for i in range(24):
            acc[i & 7] = acc.get(i & 7, 0) + _OPERANDS[i] * _OPERANDS[(i * 7) & 63]
        self.total += time.perf_counter() - t0
        self.count += 1

    def stop(self) -> float | None:
        """Stop sampling; return the mean chunk time, or None without samples."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        return self.total / self.count if self.count else None


def main() -> int:
    fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sampler = HostSpeedSampler()
    import artifact.bggcli as cli

    cli.parse_spec(argv)
    record = {"ready": time.monotonic()}
    import artifact.linalg

    scalar = type(artifact.linalg.QONE)
    record.update(
        artifact=artifact.__file__,
        backend=f"{scalar.__module__}.{scalar.__qualname__}",
        python=sys.version.split()[0],
    )
    rc = 0
    try:
        if mode != "setup":
            import tracer

            rec = tracer.install(timed=mode == "trace")
            try:
                rc = cli.main(argv)
            finally:
                record.update(rec.report())
    finally:
        record["chunk_s"] = sampler.stop()
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
