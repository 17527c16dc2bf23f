"""Ablation: VM reuse vs. re-initialisation across many small files.

Paper section 2.4: when an archive contains many files sharing one decoder,
the reader may either re-initialise the VM with a pristine decoder image per
file (safe default) or keep the VM state alive and feed it file after file
through the ``done`` protocol, which "may improve performance, especially on
archives containing many small files" at the cost of potential cross-file
information leakage -- hence the recommendation to re-initialise whenever
security attributes change.
"""

import io

from conftest import emit_report

import repro.api as vxa
from repro.bench.harness import time_callable
from repro.bench.reporting import format_ratio, format_table
from repro.core.policy import SecurityAttributes, VmReusePolicy, reuse_groups
from repro.vm.machine import ENGINE_TRANSLATOR, VirtualMachine
from repro.workloads.text import synthetic_source_file

NUM_FILES = 20
FILE_SIZE = 600


def test_ablation_vm_reuse(benchmark, registry):
    codec = registry.get("vxz")
    files = [
        synthetic_source_file(FILE_SIZE, seed=200 + index).encode()
        for index in range(NUM_FILES)
    ]
    encoded_files = [codec.encode(data) for data in files]
    image = codec.guest_decoder_image()

    def decode_fresh_each_time():
        vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR)
        outputs = []
        for encoded in encoded_files:
            outputs.append(vm.decode(encoded, fresh=True).output)
        return outputs

    def decode_with_reuse():
        vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR)
        return [result.output for result in vm.decode_many(encoded_files)]

    reuse_outputs = benchmark.pedantic(decode_with_reuse, rounds=1, iterations=1)
    fresh_seconds = time_callable(decode_fresh_each_time)
    reuse_seconds = time_callable(decode_with_reuse)
    fresh_outputs = decode_fresh_each_time()

    assert reuse_outputs == fresh_outputs == files      # same data either way

    speedup = fresh_seconds / reuse_seconds
    rows = [
        ["re-initialise per file (safe default)", f"{fresh_seconds * 1000:.0f}ms", "1.00x"],
        ["reuse VM via done protocol", f"{reuse_seconds * 1000:.0f}ms",
         format_ratio(speedup) + " faster"],
    ]
    table = format_table(
        ["Policy", f"Time for {NUM_FILES} small files", "Relative"],
        rows,
        title="Ablation: VM reuse vs re-initialisation (paper section 2.4)",
    )

    # Also show how the attribute-aware policy groups a mixed archive.
    mixed = [(f"file{i}", SecurityAttributes(mode=0o644 if i % 4 else 0o600))
             for i in range(8)]
    groups = reuse_groups(mixed, VmReusePolicy.REUSE_SAME_ATTRIBUTES)
    table += (
        "\n\nreuse-same-attributes grouping of a mixed archive "
        f"(8 files, every 4th private): {len(groups)} VM initialisations"
    )

    # End-to-end through the facade: the DecoderSession enforces the policy
    # against each member's recorded security attributes during a whole-
    # archive integrity check, and counts reuse vs re-initialisation.
    buffer = io.BytesIO()
    with vxa.create(buffer) as builder:
        for index in range(8):
            attributes = SecurityAttributes(mode=0o644 if index % 4 else 0o600)
            builder.add(f"batch/file{index}.txt",
                        synthetic_source_file(FILE_SIZE, seed=300 + index).encode(),
                        attributes=attributes)
    session_rows = []
    for policy in VmReusePolicy:
        buffer.seek(0)
        with vxa.open(buffer) as archive:
            report = archive.check(reuse=policy)
        assert report.ok
        session_rows.append([policy.value, report.stats.vm_initialisations,
                             report.stats.vm_reuses])
    table += "\n\n" + format_table(
        ["DecoderSession policy", "VM initialisations", "VM state reuses"],
        session_rows,
        title="Facade integrity check over 8 mixed-attribute files, one shared decoder",
    )
    emit_report("ablation_vm_reuse", table)

    # Reuse must help on many-small-file archives (translation and image load
    # are amortised); require a measurable improvement.
    assert speedup > 1.15
    assert 1 < len(groups) < 8

    by_policy = {row[0]: row for row in session_rows}
    # Safe default: a pristine image per file, nothing reused.
    assert by_policy["always-fresh"][1:] == [8, 0]
    # Full reuse: one initialisation, every other decode rides the warm VM.
    assert by_policy["always-reuse"][1:] == [1, 7]
    # Attribute-aware: re-initialise exactly when the protection domain flips
    # (every 4th file is 0o600), reuse inside each run of equal attributes.
    fresh, reused = by_policy["reuse-same-attributes"][1:]
    assert fresh + reused == 8
    assert 1 < fresh < 8
