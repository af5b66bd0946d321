import tracemalloc


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc counted while ``fn`` ran).

    Only allocations made during the call count: arrays built before it,
    such as the inputs, do not.
    """
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
