"""Layer-boundary spans and work counters, installed from outside the program.

The benchmark never edits the code under test.  Instead :func:`install`
rebinds the public entry points of each layer (and the few module-level
names other modules imported directly) to thin wrappers:

* **counters** are always on.  They hook one call per member decode and
  one per fsync, so the per-run work fingerprint costs nothing measurable.
* **spans** are recorded only in traced operations: name, start, end,
  parent span and the member or request id every span of one member or
  request shares.  Spans stay in memory; :meth:`Tracer.dump` writes them
  out once, when the operation ends.

A layer's self time is the time its spans cover minus the time covered by
their child spans (:func:`layer_self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter

#: Per-run ExecutionStats fields summed into the counters, by counter name.
_RUN_COUNTERS = {
    "guest_instructions": "instructions",
    "fragments_translated": "fragments_translated",
    "guards_elided": "guards_elided",
    "chained_branches": "chained_branches",
    "cache_hits": "fragment_cache_hits",
    "cache_misses": "fragment_cache_misses",
    "retranslations": "retranslations",
}

#: DecoderSession counters whose per-decode delta is recorded.
_SESSION_COUNTERS = {
    "vm_initialisations": "vm_initialisations",
    "vm_reuses": "vm_reuses",
    "images_verified": "images_verified",
}


class Tracer:
    """Collects counters always and spans when ``timing`` is set."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.counters: Counter = Counter()
        #: The same counters split by span group (member or request id).
        self.group_counters: dict = {}
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Under vxserve, spans are grouped by request, not by member.
        self.request_scoped = False

    def count(self, name: str, amount: int = 1) -> None:
        self.count_all({name: amount})

    def count_all(self, counts: dict) -> None:
        group = getattr(self._local, "group", None)
        with self._lock:
            self.counters.update(counts)
            if self.timing:
                self.group_counters.setdefault(group, Counter()).update(counts)

    def wrap(self, name: str, fn, *, group_of=None):
        """``fn`` recording a span called ``name`` around each call."""
        if not self.timing:
            return fn
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if group_of is not None:
                group = group_of(*args, **kwargs)
                if group is not None:
                    local.group = group
            group = getattr(local, "group", None)
            parent = stack[-1] if stack else None
            index = next(ids)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, group)

        return traced

    def dump(self, path) -> None:
        records = [{"id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "group": group}
                   for index, (name, start, end, parent, group)
                   in sorted(self.spans.items())]
        with open(path, "w") as handle:
            json.dump({"counters": dict(self.counters),
                       "group_counters": {str(group): dict(counts) for group, counts
                                          in self.group_counters.items()},
                       "spans": records}, handle)


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement`` (several modules import these functions by name)."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _wrap_method(tracer: Tracer, owner, attribute: str, name: str, **kwargs):
    setattr(owner, attribute,
            tracer.wrap(name, getattr(owner, attribute), **kwargs))


def install(tracer: Tracer) -> None:
    """Install the counter hooks and (when timing) the layer spans."""
    import repro.api  # noqa: F401  (binds the fsync names it imports)
    import repro.core.fsutil as fsutil
    from repro.api.session import DecoderSession

    # -- counters (always on) ------------------------------------------------
    session_decode = DecoderSession.decode

    @functools.wraps(session_decode)
    def counted_decode(self, *args, **kwargs):
        before = {key: getattr(self.stats, field)
                  for key, field in _SESSION_COUNTERS.items()}
        result = session_decode(self, *args, **kwargs)
        counts = {key: getattr(self.stats, field) - before[key]
                  for key, field in _SESSION_COUNTERS.items()}
        counts.update({key: getattr(result.stats, field)
                       for key, field in _RUN_COUNTERS.items()})
        counts["decodes"] = 1
        tracer.count_all(counts)
        return result

    DecoderSession.decode = tracer.wrap("api.session", counted_decode)

    for function_name in ("fsync_file", "fsync_directory"):
        original = getattr(fsutil, function_name)

        def counted_fsync(*args, _original=original, **kwargs):
            tracer.count("fsync_calls")
            return _original(*args, **kwargs)

        _rebind(original, tracer.wrap("core.fsync",
                                      functools.wraps(original)(counted_fsync)))

    if not tracer.timing:
        return

    # -- spans (traced operations only) --------------------------------------
    import repro.analysis.verify as analysis_verify
    import repro.api.archive as api_archive
    import repro.codecs.base  # noqa: F401  (binds compile_units)
    import repro.vm.loader as vm_loader
    import repro.vm.translator as vm_translator
    import repro.vxc.compiler as vxc_compiler
    import repro.zipformat.crc as zip_crc
    import repro.zipformat.reader as zip_reader
    import repro.zipformat.writer as zip_writer
    from repro.codecs.registry import default_registry
    from repro.vm.machine import VirtualMachine

    _wrap_method(tracer, zip_reader.ZipReader, "__init__", "zipformat.open")
    for method in ("read_stored_bytes", "read_member_at", "read_member"):
        _wrap_method(tracer, zip_reader.ZipReader, method, "zipformat.read")
    _rebind(zip_crc.crc32, tracer.wrap("zipformat.crc", zip_crc.crc32))
    for method in ("add_member", "finish"):
        _wrap_method(tracer, zip_writer.ZipWriter, method, "zipformat.write")

    for codec_class in {type(codec) for codec in default_registry()}:
        _wrap_method(tracer, codec_class, "encode", "codecs.encode")
        _wrap_method(tracer, codec_class, "decode", "codecs.native_decode")
    _rebind(vxc_compiler.compile_units,
            tracer.wrap("vxc.compile", vxc_compiler.compile_units))

    _rebind(analysis_verify.verify_image,
            tracer.wrap("analysis.verify", analysis_verify.verify_image))
    _rebind(vm_loader.admit_image,
            tracer.wrap("analysis.verify", vm_loader.admit_image))

    for method in ("__init__", "reset"):
        _wrap_method(tracer, VirtualMachine, method, "vm.load")
    _wrap_method(tracer, VirtualMachine, "decode", "vm.decode")
    _wrap_method(tracer, vm_translator.Translator, "translate", "vm.translate")

    # One member's spans share its name as their group id.
    def member_group(self, entry, *args, **kwargs):
        return None if tracer.request_scoped else entry.name

    _wrap_method(tracer, api_archive.Archive, "_member_pipeline", "api.member",
                 group_of=member_group)


def install_service(tracer: Tracer) -> None:
    """Spans at the vxserve boundaries, on top of :func:`install`."""
    import repro.parallel.service as service
    from repro.parallel.admission import AdmissionGate

    tracer.request_scoped = True

    def request_group(self, request, *args, **kwargs):
        if isinstance(request, dict):
            return f"{request.get('client')}:{request.get('id')}"
        return None

    _wrap_method(tracer, service.BatchService, "handle", "serve.handle",
                 group_of=request_group)
    _wrap_method(tracer, AdmissionGate, "admit", "serve.admit")
    service.parallel_check = tracer.wrap("serve.check_shard",
                                         service.parallel_check)
    service.parallel_extract_into = tracer.wrap("serve.extract_shard",
                                                service.parallel_extract_into)


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the children's durations."""
    child_time: Counter = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: Counter = Counter()
    for span in spans:
        totals[span["name"]] += (span["end"] - span["start"]
                                 - child_time[span["id"]])
    return dict(totals)
