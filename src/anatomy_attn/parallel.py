"""`parallel_map`: a map over forked worker processes, sized by
ANATOMY_ATTN_THREADS, that the sweeps and the gradcheck suite share."""

from __future__ import annotations

# concurrent.futures imports ProcessPoolExecutor's module, and with it
# multiprocessing's connection and queue modules, on first use: a serial
# caller, such as the gradcheck suite by default, never loads them
import concurrent.futures
import multiprocessing
import os

# (fn, items) of the running parallel_map; set only in its forked workers
_worker_job = None


def _start_worker(fn, items) -> None:
    """Initializer of a forked `parallel_map` worker: keep the job, which
    the worker inherited from its parent without pickling."""
    global _worker_job
    _worker_job = (fn, items)


def _run_item(index: int):
    fn, items = _worker_job
    return fn(items[index])


def parallel_map(fn, items) -> list:
    """`[fn(x) for x in items]`, on min(ANATOMY_ATTN_THREADS, len(items))
    worker processes; serial in this process when that is 1 or less, or
    when the variable is unset or invalid, so nothing forks by default.

    Workers are started with the fork method and inherit `fn` and `items`,
    so `fn` may be a closure or a lambda; only item indices go out, and
    results come back pickled, in order. A fork copies only the calling
    thread, so no other thread may hold a lock that `fn` takes while this
    starts its workers. A worker's exception is re-raised
    here with its own type; a worker that dies raises BrokenProcessPool.
    Every worker is joined before this returns, so their CPU time counts in
    `resource.getrusage(RUSAGE_CHILDREN)`, not in `time.process_time()`.
    """
    items = list(items)
    try:
        workers = min(int(os.environ.get("ANATOMY_ATTN_THREADS", "1")),
                      len(items))
    except ValueError:
        workers = 1
    if workers <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(fn, items)) as pool:
        return list(pool.map(_run_item, range(len(items))))
