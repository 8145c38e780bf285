"""Host speed probe: the wall time of a fixed piece of pure-Python work.

The host this benchmark runs on shares its cores, and the speed it gives
one process drifts by a factor of up to two over minutes and jumps by
10-20% from one second to the next.  A stage time on its own mixes the
program's cost with that drift.  So the worker runs this probe right
before and right after every timed stage and reports each stage time
scaled to a fixed reference speed (`scale`):

    scaled = measured * REFERENCE_S / mean(probes near the stage)

The probe uses no `lrnn` code, so a change to the program cannot move
it; it moves only with the speed the host gives this process.  It walks
a fixed synthetic network the way the program's forward pass does
(objects with input tuples, list comprehensions, `math.fsum`, `exp`, a
small result object per neuron, dict updates with string keys), in an
order scattered over memory, because a probe of that shape follows the
program's slowdowns more closely than a tight arithmetic loop, which
slows down 1.6-2 times as much as the program when the host is busy.
"""

import math
import statistics
import time

NEURONS = 10000
# The probe's typical time on the development host; scaled stage times
# are seconds at the speed that gives this probe time.
REFERENCE_S = 0.030


class _Neuron:
    __slots__ = ("nid", "inputs", "weight", "key")

    def __init__(self, nid, inputs, weight, key):
        self.nid, self.inputs, self.weight, self.key = nid, inputs, weight, key


class _Eval:
    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value, self.partials = value, partials


def _network(n):
    """n neurons with three inputs each, drawn by a fixed LCG, visited in
    an order that jumps across the allocation order."""
    x = 777
    neurons = []
    for i in range(n):
        inputs = []
        for _ in range(3 if i >= 3 else 0):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            inputs.append(x % i)
        neurons.append(_Neuron(i, tuple(inputs), 0.5 + (x % 100) / 200.0, f"a{x % 2500}"))
    return [neurons[(i * 7919) % n] for i in range(n)]


_NETWORK = _network(NEURONS)


def _activate(xs, w):
    y = 1.0 / (1.0 + math.exp(-math.fsum(xs) * w))
    return _Eval(y, [y * (1.0 - y) * w] * len(xs))


def _walk(neurons):
    values = [0.5] * len(neurons)
    best = {}
    for neuron in neurons:
        if neuron.inputs:
            ev = _activate([values[s] for s in neuron.inputs], neuron.weight)
            values[neuron.nid] = ev.value
            best[neuron.key] = max(best.get(neuron.key, 0.0), ev.value)
    return len(best)


def probe():
    """Wall time, in seconds, of one walk over the fixed network."""
    start = time.perf_counter()
    _walk(_NETWORK)
    return time.perf_counter() - start


def scale(samples):
    """Stage times scaled to the reference speed.

    `samples` holds every timed stage of a run as (start, seconds, probe
    before, probe after), start on the perf_counter clock.  The host speed
    for a sample is the mean of all probes taken from one sample length
    before its start to one sample length after its end: for a short stage
    mostly its own two probes, while a long one, whose middle no probe
    sees, also gets those of the stages around it.
    """
    probes = [(start, before) for start, _, before, _ in samples]
    probes += [(start + seconds, after) for start, seconds, _, after in samples]
    scaled = []
    for start, seconds, _, _ in samples:
        near = [p for t, p in probes if start - seconds <= t <= start + 2 * seconds]
        scaled.append(seconds * REFERENCE_S / statistics.fmean(near))
    return scaled
