"""Machine-speed probe: a fixed reference burst timed every few milliseconds.

On a shared host the speed of a vCPU changes by up to 1.7x from one second
to the next, and whole minutes run 20-30 % slower than others, so raw wall
times of the same code spread more than any useful bound.  The probe times a
fixed burst of pure-Python work from a SIGALRM handler, interleaved with the
measured code in the same process, and rescales the measured time to a
nominal machine on which one burst takes ``REF_BURST_S``:

    normalised = sum over intervals dt_i * REF_BURST_S / burst_i
               ~ net_wall * mean(REF_BURST_S / burst_i)

``net_wall`` leaves out the time spent in the handler.  The burst uses only
built-in types, so starting the probe imports nothing that ``partialskew``
would otherwise import inside the measured set-up.  The garbage collector is
paused during a burst, and the burst frees what it allocates, so the probe
neither moves the program's collections nor counts one as probe time.
"""

from __future__ import annotations

import gc
import signal
import time

REF_BURST_S = 0.001   # burst time on the nominal machine the results are scaled to
INTERVAL_S = 0.02     # one burst every 20 ms of wall time: about 5 % overhead
EDGE_SAMPLES = 5      # bursts timed just before and just after, for passes shorter than that


class _Residue:
    """A boxed residue, as the program's prime-field scalars are."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 10007

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


def burst():
    """A fixed mix of interpreter work: object arithmetic, Euclid, lists, dicts."""
    acc = _Residue(1)
    table = {}
    row = list(range(32))
    for i in range(1, 130):
        a, b = i * 7919 + 17, i * 104729 + 3
        while b:
            a, b = b, a % b
        acc = acc * _Residue(i + a) + _Residue(i)
        row = [(x * 31 + i) % 101 for x in row]
        table[i % 13] = table.get(i % 13, 0) + row[i % 32]
    return acc.v + sum(table.values())


class SpeedProbe:
    """Times ``burst`` every ``INTERVAL_S`` seconds while it is running."""

    def __init__(self):
        self.bursts = []
        self.spent = 0.0   # wall time spent in the handler so far

    def _sample(self):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        burst()
        self.bursts.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()
        return t0

    def _handler(self, signum, frame):
        t0 = self._sample()
        self.spent += time.perf_counter() - t0

    def start(self):
        for _ in range(20):   # warm the burst's code paths before timing them
            burst()
        for _ in range(EDGE_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def clock(self):
        """``perf_counter`` minus the time spent in the handler."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def speed_factor(self):
        """mean(REF_BURST_S / burst): multiply a net wall time by it to normalise."""
        return REF_BURST_S * sum(1 / b for b in self.bursts) / len(self.bursts)
