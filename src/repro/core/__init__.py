"""The VXA architecture core: decoder storage, extension headers, policy."""

from repro.core.decoder_store import DecoderStore, StoredDecoder
from repro.core.extension import VxaExtension, parse_extension
from repro.core.integrity import format_report
from repro.core.policy import SecurityAttributes, VmReusePolicy, reuse_groups

__all__ = [
    "DecoderStore",
    "StoredDecoder",
    "VxaExtension",
    "parse_extension",
    "format_report",
    "SecurityAttributes",
    "VmReusePolicy",
    "reuse_groups",
]
