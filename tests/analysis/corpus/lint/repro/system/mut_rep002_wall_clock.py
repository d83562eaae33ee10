"""REP002 mutant: the host clock read inside a SimClock-only zone."""

import time


def stamp() -> float:
    return time.perf_counter()  # REP002
