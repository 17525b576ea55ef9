"""Small shared helpers: worker pool, deterministic JSON."""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def default_threads():
    """Thread count from PMC_THREADS, falling back to 1."""
    raw = os.environ.get("PMC_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn, items, threads=1):
    """Map fn over items, preserving order. threads <= 1 runs inline."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, path):
    """Write a report dict as deterministic JSON (sorted keys, stable floats)."""
    with open(path, "w") as fh:
        json.dump(_plain(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
