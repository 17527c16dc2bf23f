"""Seeded input generation for the four benchmark workloads.

Everything here runs in the benchmark's own process, before any timed
operation: the program under test only ever sees the files these functions
write.  The same seed always yields byte-identical inputs and archives
(member timestamps in vxZIP archives are fixed), so per-seed work counts
repeat exactly.

Each builder returns a plain dict describing what it wrote, including the
reference SHA-256 of every lossless member and the CRC-32 the archive
records for every lossy one, which is what extracted output is checked
against.
"""

from __future__ import annotations

import hashlib
import json
import random

import repro.api as vxa
from repro.core.policy import VmReusePolicy
from repro.formats.ppm import write_ppm
from repro.formats.wav import write_wav
from repro.workloads import (
    synthetic_log_bytes,
    synthetic_music,
    synthetic_photo,
    synthetic_source_tree_bytes,
)

#: Members at or below this size are the ones ``vm_native_ratio`` decodes
#: in VXA mode: the guest VM is interpreted Python, so larger members would
#: take minutes per run (the same limit the repository's own notes give).
VXA_TRACTABLE_BYTES = 20 * 1024
#: Bytes per codec the ratio operation decodes, at least one member's worth.
RATIO_BYTES_PER_CODEC = 8 * 1024


def _sub_seed(seed: int, *parts) -> int:
    """A stable 31-bit seed for one generated item."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _text(size: int, seed: int, *parts) -> bytes:
    return synthetic_source_tree_bytes(size, seed=_sub_seed(seed, *parts))


def _photo(width: int, height: int, seed: int, *parts) -> bytes:
    return write_ppm(synthetic_photo(width, height, seed=_sub_seed(seed, *parts)))


def _clip(seconds: float, seed: int, *parts) -> bytes:
    return write_wav(synthetic_music(seconds=seconds, sample_rate=8000,
                                     channels=1, seed=_sub_seed(seed, *parts)))


def _per_decoder_members(seed: int, tag: str, count: int, text_bytes: int,
                         photo_size: tuple[int, int],
                         clip_seconds: float) -> list[tuple[str, bytes, str]]:
    """``count`` members for each of the six decoders: (name, data, codec)."""
    width, height = photo_size
    members = []
    for index in range(count):
        members += [
            (f"{tag}/text{index}.vxz.txt",
             _text(text_bytes, seed, tag, "vxz", index), "vxz"),
            (f"{tag}/text{index}.vxbwt.txt",
             _text(text_bytes, seed, tag, "vxbwt", index), "vxbwt"),
            (f"{tag}/photo{index}.vximg.ppm",
             _photo(width, height, seed, tag, "vximg", index), "vximg"),
            (f"{tag}/photo{index}.vxjp2.ppm",
             _photo(width, height, seed, tag, "vxjp2", index), "vxjp2"),
            (f"{tag}/clip{index}.vxflac.wav",
             _clip(clip_seconds, seed, tag, "vxflac", index), "vxflac"),
            (f"{tag}/clip{index}.vxsnd.wav",
             _clip(clip_seconds, seed, tag, "vxsnd", index), "vxsnd"),
        ]
    return members


def describe_archive(path, inputs: dict[str, bytes]) -> dict:
    """Reference digests and sizes for an archive built from ``inputs``.

    ``decoder_bytes`` counts the stored size of every embedded decoder
    pseudo-file, i.e. the archive bytes the decoders cost.
    """
    from repro.zipformat.reader import ZipReader

    expected = {}
    offsets = set()
    with vxa.open(path) as archive:
        for name in archive.names():
            info = archive.info(name)
            extension = archive.extension_for(name)
            lossy = info.lossy and not info.precompressed
            expected[name] = {
                "size": len(inputs[name]),
                "sha256": None if lossy else hashlib.sha256(inputs[name]).hexdigest(),
                "crc32": extension.original_crc32 if lossy else None,
                "codec": info.codec_name,
                "precompressed": info.precompressed,
            }
            if extension is not None:
                offsets.add(extension.decoder_offset)
    with open(path, "rb") as handle:
        reader = ZipReader(handle)
        decoder_bytes = sum(reader.read_member_at(offset)[0].compressed_size
                            for offset in offsets)
    return {
        "archive": str(path),
        "archive_bytes": path.stat().st_size,
        "input_bytes": sum(len(data) for data in inputs.values()),
        "decoder_bytes": decoder_bytes,
        "members": expected,
        "ratio_members": _ratio_members(expected),
    }


def _ratio_members(expected: dict) -> list[str]:
    """The members ``vm_native_ratio`` decodes: per codec, its
    decoder-bearing, not pre-compressed members of at most
    ``VXA_TRACTABLE_BYTES`` in name order, until they add up to
    ``RATIO_BYTES_PER_CODEC``.  That is one member per codec of a few KiB
    or more, or every tiny one, so the ratio operation leaves room for the
    workload's own operations in a run."""
    chosen: dict[str, list[str]] = {}
    size: dict[str, int] = {}
    for name, meta in sorted(expected.items()):
        codec = meta["codec"]
        if (codec is None or meta["precompressed"]
                or meta["size"] > VXA_TRACTABLE_BYTES
                or size.get(codec, 0) >= RATIO_BYTES_PER_CODEC):
            continue
        chosen.setdefault(codec, []).append(name)
        size[codec] = size.get(codec, 0) + meta["size"]
    return sorted(name for names in chosen.values() for name in names)


def _build_archive(path, members: list[tuple[str, bytes, str]]) -> dict:
    with vxa.create(path) as builder:
        for name, data, codec in members:
            builder.add(name, data, codec=codec)
    return describe_archive(path, {name: data for name, data, _ in members})


def extract_large(work, seed: int) -> dict:
    """The Figure-7 case: a few tens of KiB per member, one domain."""
    width, height = 72, 48
    members = []
    for codec in ("vxz", "vxbwt"):
        for index in range(2):
            members.append((f"large/text{index}.{codec}.txt",
                            _text(16 * 1024, seed, "large", codec, index), codec))
    members += [
        ("large/photo.vximg.ppm", _photo(width, height, seed, "large", "vximg"), "vximg"),
        ("large/photo.vxjp2.ppm", _photo(width, height, seed, "large", "vxjp2"), "vxjp2"),
        ("large/clip.vxflac.wav", _clip(0.5, seed, "large", "vxflac"), "vxflac"),
        ("large/clip.vxsnd.wav", _clip(0.5, seed, "large", "vxsnd"), "vxsnd"),
    ]
    info = _build_archive(work / "large.zip", members)
    info["reuse"] = VmReusePolicy.REUSE_SAME_ATTRIBUTES.value
    return info


def extract_small_fresh(work, seed: int) -> dict:
    """Section 2.4's many-small-files case: 8 tiny members per decoder."""
    members = _per_decoder_members(seed, "small", 8, 512, (16, 12), 0.02)
    info = _build_archive(work / "small.zip", members)
    info["reuse"] = VmReusePolicy.ALWAYS_FRESH.value
    return info


def serve_mixed(work, seed: int) -> dict:
    """A small mixed archive (one member per decoder) for vxserve traffic."""
    members = _per_decoder_members(seed, "serve", 1, 1024, (24, 16), 0.05)
    info = _build_archive(work / "serve.zip", members)
    # vxserve's default policy, which the ratio op mirrors.
    info["reuse"] = VmReusePolicy.REUSE_SAME_ATTRIBUTES.value
    return info


def archive_write(work, seed: int) -> dict:
    """A ~400 KB mixed corpus on disk plus the recipe the create op follows.

    Codec choices cover every write-side path: auto-selected source text,
    logs forced to vxbwt, an auto-selected lossy photo plus a vxjp2 one, an
    auto-selected wav plus a vxsnd one, an already-vxz stream (stored as-is
    with its decoder attached) and one ``store_raw`` member.
    """
    from repro.codecs.registry import default_registry

    corpus = work / "corpus"
    corpus.mkdir()
    rng = random.Random(_sub_seed(seed, "write", "raw"))
    recipe = []

    def add(name, data, **options):
        (corpus / name).write_bytes(data)
        recipe.append({"name": name, "path": str(corpus / name), **options})
        return data

    inputs = {}
    for index in range(4):
        inputs[f"src{index}.c"] = add(f"src{index}.c",
                                      _text(64 * 1024, seed, "write", "src", index))
    for index in range(2):
        inputs[f"log{index}.log"] = add(
            f"log{index}.log",
            synthetic_log_bytes(40 * 1024, seed=_sub_seed(seed, "write", "log", index)),
            codec="vxbwt")
    inputs["photo.ppm"] = add("photo.ppm", _photo(72, 48, seed, "write", "photo"),
                              allow_lossy=True)
    inputs["photo.vxjp2.ppm"] = add("photo.vxjp2.ppm",
                                    _photo(72, 48, seed, "write", "jp2"), codec="vxjp2")
    inputs["clip.wav"] = add("clip.wav", _clip(0.5, seed, "write", "clip"))
    inputs["clip.vxsnd.wav"] = add("clip.vxsnd.wav", _clip(0.5, seed, "write", "snd"),
                                   codec="vxsnd")
    vxz = default_registry().get("vxz")
    inputs["bundle.vxz"] = add("bundle.vxz",
                               vxz.encode(_text(24 * 1024, seed, "write", "redec")))
    inputs["blob.bin"] = add("blob.bin", rng.randbytes(32 * 1024), store_raw=True)
    recipe_path = work / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    return {"recipe": str(recipe_path), "inputs": inputs,
            "input_bytes": sum(len(data) for data in inputs.values())}
