"""ATL002 fixture: wall-clock reads outside benchmarks/."""

import time
from datetime import datetime
from time import perf_counter


def stamp():
    started = time.time()
    tick = perf_counter()
    return started, tick, datetime.now()
