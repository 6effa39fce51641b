"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by up to 2x
over tens of seconds: neighbours load the same physical cores, and
CPU-bound Python slows with them. On the machine this benchmark was
sized on (2 vCPUs, CPython 3.11.7), one fixed by-projection query's
per-second median wall time ranged from 28 to 62 ms over four minutes
in one process; the interquartile range was 43% of the median.
Resampling that trace, ten 12-second runs differ by about 24%, more
than any useful regression bound.

So every timed interval is calibrated. The thread that times
intervals runs a fixed reference kernel before the first and after each
one, and divides each interval's wall time by how much slower than
nominal the kernel ran around it. Over two minutes of the same query,
the per-second ratio of the query's time to the kernel's had an
interquartile range of 10% of its median, against 29% for the query's
time alone. A calibrated time reads as the wall time the run would have
measured on a machine where the kernel takes NOMINAL_MS. The kernel
lives here, frozen, and calls nothing in ``src/``: a change to the
system cannot move it.
"""

from __future__ import annotations

import statistics
from time import thread_time

#: The reference kernel's nominal duration: its uncontended time on the
#: machine the benchmark was sized on. Calibrated times are in units of
#: that machine.
NOMINAL_MS = 1.5
#: Readings whose median calibrates one interval.
WINDOW = 6

_TEXT = "".join(
    f'<item id="i{index}" kind="k{index % 7}"><name>n{index}</name>'
    f"<value>{index * 7 % 100}</value></item>"
    for index in range(170))


class _Node:
    __slots__ = ("tag", "attributes", "children", "text")

    def __init__(self, tag: str, attributes: dict[str, str]):
        self.tag = tag
        self.attributes = attributes
        self.children: list[_Node] = []
        self.text = ""


def reference_kernel() -> int:
    """Fixed work shaped like the system's hot loops: scan markup one
    character at a time, slice names and values out of it, and build a
    small tree of objects. Returns the element count."""
    text = _TEXT
    stack = [_Node("#root", {})]
    count = 0
    index, end = 0, len(text)
    while index < end:
        if text[index] != "<":
            start = index
            while index < end and text[index] != "<":
                index += 1
            stack[-1].text = text[start:index]
            continue
        close = text[index + 1] == "/"
        start = index + (2 if close else 1)
        index = start
        while text[index] not in " >":
            index += 1
        tag = text[start:index]
        attributes: dict[str, str] = {}
        while text[index] == " ":
            equals = text.index("=", index)
            quote = text.index('"', equals + 2)
            attributes[text[index + 1:equals]] = text[equals + 2:quote]
            index = quote + 1
        index += 1
        if close:
            stack.pop()
        else:
            node = _Node(tag, attributes)
            stack[-1].children.append(node)
            stack.append(node)
            count += 1
    return count


def reference_ms() -> float:
    """One run of the kernel, in milliseconds of the calling thread's
    CPU time: how fast the machine executes now, not how long the thread
    waited for the interpreter lock."""
    started = thread_time()
    reference_kernel()
    return (thread_time() - started) * 1000


def calibrate(intervals_s: list[float],
              readings_ms: list[float]) -> list[float]:
    """Calibrate consecutive intervals timed on one thread.

    ``readings_ms[i]`` was taken just before interval ``i`` and
    ``readings_ms[i + 1]`` just after it. Each interval's wall time is
    divided by the median of the WINDOW readings nearest it, over
    NOMINAL_MS: one 1.5 ms kernel run is a noisy reading, while the
    machine's speed drifts over seconds, longer than a window spans.
    """
    if len(readings_ms) != len(intervals_s) + 1:
        raise ValueError("need one reading before and after each interval")
    half = WINDOW // 2
    out = []
    for index, interval in enumerate(intervals_s):
        low = max(0, min(index + 1 - half, len(readings_ms) - WINDOW))
        reading = statistics.median(readings_ms[low:low + WINDOW])
        out.append(interval * NOMINAL_MS / reading)
    return out
