"""Reference seconds: times corrected for the speed the CPU had as they ran.

On a machine shared with other work the speed of a CPU drifts by tens of
percent within seconds and within minutes: on a 2-core sandbox a fixed
14 ms Python kernel took anywhere from 13 to 26 ms within one benchmark run,
and the same cold check took 24 s in one minute and 34 s ten minutes later.
A raw time mixes that drift with the program's own cost.

``RefClock`` measures the speed with ``probe``, a fixed pure-Python kernel,
every ``SAMPLE_EVERY_S`` while an operation runs: it stops a child process
with SIGSTOP for the probe and resumes it, or probes from a timer signal when
the operation runs in this process.  Each slice of the operation's run time
is converted at the speed measured at its two ends:

    reference s = sum over slices of  run_s * REF_PROBE_S / mean(probes at its ends)

which is the time the operation would take on a CPU that runs the kernel in
REF_PROBE_S.  Probe time is never counted as the operation's time.  The
caller must keep this process and its children on one CPU, so that the
probes measure the CPU the operation runs on.
"""

import os
import select
import signal
import subprocess
import time
from fractions import Fraction

# Time of one probe on the reference machine (2-core sandbox, Python
# 3.11.7) when nothing else loads it.  Short probes taken often track the
# drift better than long ones taken rarely (see README.md).
REF_PROBE_S = 0.0024
SAMPLE_EVERY_S = 0.05


def _kernel():
    s, d = Fraction(0), {}
    for i in range(1, 1000):
        s += Fraction(i % 89 + 1, i % 97 + 1)
        d[i % 31] = d.get(i % 31, 0) + i * i
    return s, d


def probe():
    """CPU time of one run of the kernel."""
    t0 = time.process_time()
    _kernel()
    return time.process_time() - t0


class RefClock:
    """Runs operations and reports their run time in raw and reference seconds."""

    def __init__(self):
        self.probes = [probe()]
        self.probe_cpu_s = 0.0  # CPU time this process spent probing

    def _sample(self):
        c0 = time.process_time()
        self.probes.append(probe())
        self.probe_cpu_s += time.process_time() - c0

    def _finish(self, first, runs):
        """(raw s, reference s) of slices `runs`, bracketed by the probes
        from index `first` on plus one taken now."""
        self._sample()
        ends = self.probes[first:]
        ref = sum(r * 2 * REF_PROBE_S / (a + b) for r, a, b in zip(runs, ends, ends[1:]))
        return sum(runs), ref

    def call(self, fn):
        """fn() in this process: (result, raw s, reference s, raw CPU s)."""
        first = len(self.probes) - 1
        runs = []
        mark = time.perf_counter()

        def tick(signum, frame):
            nonlocal mark
            runs.append(time.perf_counter() - mark)
            self._sample()
            mark = time.perf_counter()

        c0, p0 = time.process_time(), self.probe_cpu_s
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        runs.append(time.perf_counter() - mark)
        cpu = time.process_time() - c0 - (self.probe_cpu_s - p0)
        raw, ref = self._finish(first, runs)
        return result, raw, ref, cpu

    def child(self, argv, timeout, **popen):
        """argv as a child process, run to its end or killed after `timeout`
        seconds: (exit code or None on timeout, raw s, reference s, CPU s,
        peak RSS KiB), CPU and RSS from the child's own rusage."""
        first = len(self.probes) - 1
        runs = []
        proc = subprocess.Popen(argv, **popen)
        status = None
        timed_out = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                start = mark = time.perf_counter()
                while status is None:
                    now = time.perf_counter()
                    if now - start >= timeout:
                        timed_out = True
                        proc.kill()
                    else:
                        wait = min(mark + SAMPLE_EVERY_S, start + timeout) - now
                        ready, _, _ = select.select([pidfd], [], [], max(wait, 0))
                        if not ready and time.perf_counter() - mark < SAMPLE_EVERY_S:
                            continue
                        if not ready:
                            os.kill(proc.pid, signal.SIGSTOP)
                    _, st, usage = os.wait4(proc.pid, os.WUNTRACED)
                    runs.append(time.perf_counter() - mark)
                    if os.WIFSTOPPED(st):
                        self._sample()
                        os.kill(proc.pid, signal.SIGCONT)
                        mark = time.perf_counter()
                    else:
                        status = st
            finally:
                os.close(pidfd)
        finally:
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        raw, ref = self._finish(first, runs)
        code = None if timed_out else proc.returncode
        return code, raw, ref, usage.ru_utime + usage.ru_stime, usage.ru_maxrss
