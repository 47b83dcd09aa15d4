"""One build per key, at the widest order read: the store of the series
engine (``genfun``) and of the counting oracle (``combinatorics``).  It
imports no route code, so the two routes share it and stay independent."""

from collections import Counter, namedtuple
from functools import wraps

CacheInfo = namedtuple("CacheInfo", "hits misses currsize")


def widest(cut):
    """Turn build(*key, order) into a reader that holds one build per key:
    the first read builds it, a wider read rebuilds it, a lower read is
    cut(held, order), and a build that raises stores nothing.
    ``cache_info()`` counts builds as misses and reads served by a held
    build as hits; ``cache_clear()`` empties the reader and its counts."""

    def wrap(build):
        held, reads = {}, Counter()  # key -> (order, value); built? -> reads

        @wraps(build)
        def read(*key_order):
            *key, order = key_order
            got = held.get(key := tuple(key))
            built = got is None or got[0] < order
            if built:
                got = held[key] = (order, build(*key, order))
            reads[built] += 1
            return got[1] if got[0] == order else cut(got[1], order)

        read.cache_info = lambda: CacheInfo(reads[False], reads[True], len(held))
        read.cache_clear = lambda: (held.clear(), reads.clear())
        return read

    return wrap
