"""The reference routine: fixed pure-Python work that never imports vwbm.

The harness runs this file as a fresh interpreter on each side of every
timed item, so the reference pays the same start-up cost as the item and
tracks both the machine's process start-up and its interpreter speed.
"""
from fractions import Fraction

LOOPS = 5000    # about 25 ms of work on a 2-vCPU x86-64 VM, CPython 3.11


def reference_work() -> tuple[Fraction, int]:
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, LOOPS):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 13 + 1)
    return acc, len(table)


if __name__ == "__main__":
    reference_work()
