"""Worker-side bootstrap: long-lived archives and decoder sessions.

A worker (one OS process of the ``ProcessPoolExecutor``, or one thread of
the in-process pool) keeps a small LRU of open :class:`~repro.api.Archive`
objects keyed by archive identity and options.  Each cached archive owns its
:class:`~repro.api.session.DecoderSession`, which in turn owns one
:class:`~repro.vm.code_cache.CodeCache` per decoder image -- so a decoder's
superblocks are translated once per worker and reused for every member the
scheduler routed there, and (under ``vxserve``) for every later request that
touches the same archive.  Across *different* archives the process-wide
compiled-source memo in :mod:`repro.vm.translator` still short-circuits
recompilation of identical decoder images.

State lives in ``threading.local``: a process-pool worker runs tasks on its
main thread, a thread-pool worker is itself a thread, so the same bootstrap
serves both and no state is ever shared between workers.  The shard
runners themselves live in :mod:`repro.parallel.engine`, next to the
member loops they run.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import threading
from collections import OrderedDict

#: Open archives kept per worker; beyond this the least-recently-used is
#: closed so a long-running service touching many workers stays bounded.
MAX_CACHED_ARCHIVES = 8

_STATE = threading.local()


def in_worker() -> bool:
    """Is the current thread executing a pool shard right now?

    The flag is set for the duration of :func:`shard_archive` only.  The
    engine's member loops consult it to decide whether a simulated worker
    kill should crash the shard (so pool crash recovery handles it) or be
    recorded as one contained member failure (the inline shard).
    """
    return getattr(_STATE, "in_worker", False)


def in_process_worker() -> bool:
    """Is this code running in a child process of a process pool?

    Distinguishes the two worker flavours for the kill-worker fault: a
    process worker can die for real (``os._exit``), a thread worker shares
    the caller's process and must simulate the death by raising instead.
    """
    return multiprocessing.current_process().name != "MainProcess"


def _archives() -> OrderedDict:
    cache = getattr(_STATE, "archives", None)
    if cache is None:
        cache = OrderedDict()
        _STATE.archives = cache
    return cache


def _source_key(source: dict):
    if "path" in source:
        # Key on file identity, not just the name: a long-lived pool
        # (vxserve) must not serve a cached Archive whose ZipReader parsed
        # a file that has since been replaced at the same path.
        path = str(source["path"])
        try:
            status = os.stat(path)
            identity = (status.st_ino, status.st_size, status.st_mtime_ns)
        except OSError:
            identity = None
        return ("path", path, identity)
    return ("data", hashlib.sha256(source["data"]).hexdigest())


def _options_key(options):
    # ReadOptions is frozen but not reliably hashable (a custom
    # ExecutionLimits or registry is a mutable object), so key on a
    # primitive projection.  The registry is fingerprinted by its codec
    # names, never object identity: process-mode payloads unpickle a fresh
    # registry object per task, and an identity key would miss the cache
    # (reopening the archive and cold-starting the session) every time.
    registry = options.registry
    registry_key = (tuple(sorted(registry.names()))
                    if registry is not None else None)
    return (options.mode, options.force_decode, options.engine,
            repr(options.limits), options.reuse.value, options.chunk_size,
            options.superblock_limit, options.chain_fragments,
            options.code_cache_limit, options.verify_images,
            options.analysis_elision, options.on_error, options.retries,
            options.member_deadline, options.on_damage,
            options.durable_output, repr(options.fault_plan), registry_key)


def _acquire_archive(source: dict, options):
    """The worker's cached archive for ``(source, options)``, opened on miss."""
    import repro.api as vxa

    source_key = _source_key(source)
    key = (source_key, _options_key(options))
    cache = _archives()
    archive = cache.get(key)
    if archive is not None:
        cache.move_to_end(key)
        return archive
    if "path" in source:
        # The file at this path was replaced (identity changed): close any
        # archives parsed from its previous incarnation right away.
        stale = [existing for existing in cache
                 if existing[0][:2] == source_key[:2] and existing[0] != source_key]
        for existing in stale:
            cache.pop(existing).close()
    target = source["path"] if "path" in source else source["data"]
    archive = vxa.open(target, options)
    cache[key] = archive
    while len(cache) > MAX_CACHED_ARCHIVES:
        _, evicted = cache.popitem(last=False)
        evicted.close()
    return archive


def _evict_archive(source: dict, options) -> None:
    """Drop this worker's cached archive for ``(source, options)``, if any.

    Crash retries run the suspect member against a pristine VM *and* a
    pristine :class:`~repro.api.session.DecoderSession`: evicting the cached
    archive forces :func:`_acquire_archive` to reopen it from scratch, so no
    session state from the crashed attempt can influence the retry.
    """
    key = (_source_key(source), _options_key(options))
    archive = _archives().pop(key, None)
    if archive is not None:
        archive.close()


def shutdown_worker() -> None:
    """Close this worker's cached archives.

    Thread-pool teardown (:meth:`WorkerPool.close`) runs this on every
    worker thread so no file handles outlive the pool; process workers
    release their handles when the process exits.
    """
    cache = getattr(_STATE, "archives", None)
    if cache:
        for archive in cache.values():
            archive.close()
        cache.clear()


@contextlib.contextmanager
def shard_archive(payload: dict):
    """The worker's archive for one shard payload, with the thread marked.

    Payload keys read here: ``source`` (``{"path": ...}`` or ``{"data":
    ...}``), ``options`` (:class:`~repro.api.options.ReadOptions`) and
    ``fresh`` (crash retry: reopen the archive so the member runs against
    a pristine VM and session).
    """
    previous = getattr(_STATE, "in_worker", False)
    _STATE.in_worker = True
    try:
        if payload.get("fresh"):
            _evict_archive(payload["source"], payload["options"])
        yield _acquire_archive(payload["source"], payload["options"])
    finally:
        _STATE.in_worker = previous
