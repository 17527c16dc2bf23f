"""Superblock dynamic binary translation engine for the VXA virtual machine.

This is the analogue of vx32's code sandboxing technique (paper section 4.2):
guest code is never executed directly.  The first time execution reaches a
guest address the translator scans the instruction stream from that address
and emits an equivalent *safe fragment* -- here a compiled Python function --
which is stored in a :class:`~repro.vm.code_cache.CodeCache` keyed by the
guest entry point.

The engine goes beyond one-basic-block-at-a-time translation in three ways,
mirroring the optimisations that make vx32 fast:

*Superblocks.*  The translator follows fall-throughs and direct ``jmp``
branches across basic-block boundaries, building one single-entry multi-exit
trace per fragment (bounded by ``superblock_limit`` instructions and by
revisiting an address already in the trace).  Conditional branches do not end
a trace: the taken edge becomes a side exit and translation continues down
the fall-through path, so hot loops compile into one fragment instead of a
chain of tiny blocks.  ``call`` ends the trace (following it would duplicate
the callee body into every call site's trace, which costs more in
translation time than the saved dispatch is worth) but its edge is still
chainable.

*Fragment chaining.*  Every exit whose successor address is statically known
(direct branches, fall-throughs, the continuation after a virtual system
call) is resolved through the dispatcher exactly once.  The dispatcher then
*back-patches* the exit -- the successor fragment is written into the exit's
slot (a default argument of the compiled function) -- so later executions
hand the successor straight back to the trampoline without any hash lookup.
This plays the role of vx32's back-patched branch trampolines: the fragment
cache's hash table is only consulted for indirect branches (``jmpr``,
``callr``, ``ret``) and for the first execution of each direct edge.

*Inlined guest memory and registers.*  Fragments bind the guest's backing
``bytearray`` and hoist the eight guest registers (and the condition-code
pair) into Python locals at entry, spilling the modified ones back at every
exit.  Loads and stores compile to raw slice/index operations guarded by
precomputed bounds expressions instead of ``GuestMemory`` method calls, and
the instruction-limit accounting is one addition per executed fragment exit
rather than per instruction.

The memory-check policies of :mod:`repro.vm.memory` are honoured: under
``full`` every load and store carries an explicit bounds check against the
live sandbox size (and faults with a precise address); ``write-only`` elides
the read guards and ``none`` elides both.  Eliding a guard never weakens
isolation: the ``struct`` packers and byte indexing bounds-check against the
backing store themselves, so an unchecked wild access still faults (via the
dispatcher's backstop, without a precise address) and can never read, write
or resize memory outside the sandbox.

Because the guest ISA is variable-length, the translator only ever decodes
along realised execution paths; a jump into the middle of an instruction
simply translates whatever bytes are found there, and anything that does not
decode raises :class:`~repro.errors.IllegalInstructionFault` -- the guest can
hurt only itself.  A trace that runs into undecodable bytes *after* a side
exit ends early with a lazy exit, so the fault is only raised if execution
actually falls through to the bad address.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from time import monotonic
from typing import Callable

from repro.errors import (
    DeadlineExceeded,
    DivisionFault,
    IllegalInstructionFault,
    InvalidInstructionError,
    MemoryFault,
    ResourceLimitExceeded,
)
from repro.isa.encoding import decode
from repro.isa.opcodes import CONDITIONAL_JUMPS, Op
from repro.vm.memory import CHECK_FULL, CHECK_WRITE_ONLY
from repro.vm.syscalls import ACTION_EXIT

#: Maximum number of guest instructions translated into one superblock.
MAX_SUPERBLOCK_INSTRUCTIONS = 256

#: Backwards-compatible alias (the pre-superblock engine's name).
MAX_FRAGMENT_INSTRUCTIONS = MAX_SUPERBLOCK_INSTRUCTIONS

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000


@dataclass(slots=True)
class Fragment:
    """One translated code fragment (a superblock trace)."""

    entry: int                    # guest address of the first instruction
    func: Callable                # compiled fragment: (vm, regs, mem, buf, *exits)
    instruction_count: int        # guest instructions along the full trace
    end: int                      # guest address where the trace stopped
    source: str                   # generated Python source (for inspection/tests)
    exit_targets: tuple[int, ...] = ()   # static successor pc per chainable exit


def _signed(value: int) -> int:
    return value - 0x100000000 if value >= 0x80000000 else value


def _signed_division(dividend: int, divisor: int, want_remainder: bool) -> int:
    """C-style truncating signed division / remainder on 32-bit values."""
    if divisor == 0:
        raise DivisionFault("division by zero")
    dividend_signed = _signed(dividend)
    divisor_signed = _signed(divisor)
    quotient = abs(dividend_signed) // abs(divisor_signed)
    if (dividend_signed < 0) != (divisor_signed < 0):
        quotient = -quotient
    if want_remainder:
        return (dividend_signed - quotient * divisor_signed) & _MASK
    return quotient & _MASK


def _unsigned_division(dividend: int, divisor: int, want_remainder: bool) -> int:
    if divisor == 0:
        raise DivisionFault("division by zero")
    return (dividend % divisor if want_remainder else dividend // divisor) & _MASK


def _memory_fault(address: int, size: int, kind: str):
    raise MemoryFault(address, size, kind)


#: Instructions between wall-clock deadline checks when one is armed.  The
#: generated fragments and the dispatcher already compare ``vm.icount``
#: against ``vm.budget`` on every fragment exit and loop back-edge; with a
#: deadline active, ``vm.budget`` is lowered to a rolling *checkpoint* so
#: those very comparisons bring execution into :func:`_budget_exceeded`
#: about every quantum, where the (comparatively expensive) time check
#: runs.  Fragment source text is untouched, preserving the process-wide
#: compile memo.
DEADLINE_CHECK_INTERVAL = 250_000


def _budget_exceeded(vm):
    """Fragment/dispatcher budget stop: hard limit, deadline, or checkpoint.

    Reached whenever ``vm.icount > vm.budget``.  With no deadline armed,
    ``vm.budget`` *is* the hard instruction budget and this always raises.
    With a deadline armed, ``vm.budget`` is a rolling checkpoint below the
    hard budget: enforce the hard budget, then the wall clock, then slide
    the checkpoint forward and resume.
    """
    hard = getattr(vm, "hard_budget", vm.budget)
    if vm.icount > hard:
        raise ResourceLimitExceeded(
            f"decoder exceeded its instruction budget ({hard})"
        )
    deadline = vm.deadline
    if deadline is not None and monotonic() >= deadline:
        raise DeadlineExceeded(
            "decoder exceeded its wall-clock deadline",
            deadline=vm.limits_in_effect.max_wall_seconds,
            instructions=vm.icount,
        )
    vm.budget = min(hard, vm.icount + DEADLINE_CHECK_INTERVAL)


#: Packers/unpackers for inlined guest memory access.  ``unpack_from`` and
#: ``pack_into`` operate on the backing bytearray with no intermediate bytes
#: object (3-4x cheaper than ``int.from_bytes`` over a slice) and raise
#: ``struct.error`` on any overrun, so even unchecked-policy accesses can
#: never escape or resize the sandbox.
_U32 = struct.Struct("<I").unpack_from
_P32 = struct.Struct("<I").pack_into
_U16 = struct.Struct("<H").unpack_from
_P16 = struct.Struct("<H").pack_into

#: Globals made available to generated fragment code.
_FRAGMENT_GLOBALS = {
    "_sdiv": _signed_division,
    "_udiv": _unsigned_division,
    "_flt": _memory_fault,
    "_over": _budget_exceeded,
    "_u32": _U32,
    "_p32": _P32,
    "_u16": _U16,
    "_p16": _P16,
    "ACTION_EXIT": ACTION_EXIT,
}

#: Condition expressions over the hoisted condition-code locals.  Signed
#: comparisons use the sign-bias trick: for 32-bit unsigned a, b it holds
#: that signed(a) < signed(b)  iff  (a ^ 0x80000000) < (b ^ 0x80000000).
_CONDITION_EXPR = {
    Op.JE: "cca == ccb",
    Op.JNE: "cca != ccb",
    Op.JLTU: "cca < ccb",
    Op.JLEU: "cca <= ccb",
    Op.JGTU: "cca > ccb",
    Op.JGEU: "cca >= ccb",
    Op.JLTS: f"(cca ^ {_SIGN}) < (ccb ^ {_SIGN})",
    Op.JLES: f"(cca ^ {_SIGN}) <= (ccb ^ {_SIGN})",
    Op.JGTS: f"(cca ^ {_SIGN}) > (ccb ^ {_SIGN})",
    Op.JGES: f"(cca ^ {_SIGN}) >= (ccb ^ {_SIGN})",
}

#: 2**32 - 2**8 and 2**32 - 2**16: adding these is (x - 2**n) & MASK for the
#: sign-extension of 8- and 16-bit loads, with no masking needed.
_EXT8 = (1 << 32) - (1 << 8)
_EXT16 = (1 << 32) - (1 << 16)

#: Process-wide memo of compiled fragment sources.  Fragment source text is a
#: pure function of the trace bytes and the translator configuration, and a
#: Python code object is immutable, so two VMs running the same decoder image
#: (back-to-back members under an ALWAYS_FRESH policy, parallel sessions, a
#: long-lived archive server) can share the *compilation* even when they do
#: not share a fragment cache.  ``compile`` is by far the most expensive step
#: of translation; the memo turns retranslation into decode + codegen only.
_CODE_MEMO: dict[str, object] = {}
_CODE_MEMO_LIMIT = 4096
#: The memo is process-wide shared state: the in-process thread pool of
#: :mod:`repro.parallel` runs several translators concurrently, so every
#: read-modify-write of the memo must hold this lock.  ``compile`` itself
#: runs outside the lock -- two threads racing to compile the same source
#: waste one compilation, never correctness.
_CODE_MEMO_LOCK = threading.Lock()


class Translator:
    """Scans guest code and produces superblock :class:`Fragment` objects.

    Args:
        memory: the guest sandbox (code bytes and check policy source).
        text_start, text_end: the executable region recorded by the loader.
        superblock_limit: maximum guest instructions per trace (``None``
            uses :data:`MAX_SUPERBLOCK_INSTRUCTIONS`; ``1`` degenerates to
            one instruction per fragment, for ablations).
        chain: emit back-patchable exits for statically known successors.
            Disabled together with the fragment cache, since a chained exit
            is itself a cached translation.
        proved_reads, proved_writes: instruction addresses whose memory
            access the static verifier (:mod:`repro.analysis`) proved in
            bounds for every sandbox of at least the report's ``min_size``
            bytes; their guards are dropped.  The caller is responsible for
            checking ``min_size`` against the live sandbox before passing
            these in.
    """

    def __init__(self, memory, text_start: int, text_end: int, *,
                 superblock_limit: int | None = None, chain: bool = True,
                 known_entries=None,
                 proved_reads: frozenset = frozenset(),
                 proved_writes: frozenset = frozenset()):
        self._memory = memory
        self._text_start = text_start
        self._text_end = text_end
        self._limit = superblock_limit or MAX_SUPERBLOCK_INSTRUCTIONS
        self._chain = chain
        #: Entry points already translated (the code cache's history).  A
        #: trace that reaches one of these stops and chains to the existing
        #: fragment instead of duplicating its tail -- the same reason vx32
        #: ends fragments at known translation boundaries.
        self._known_entries = known_entries if known_entries is not None else set()
        self._check_reads = memory.check_policy == CHECK_FULL
        self._check_writes = memory.check_policy in (CHECK_FULL, CHECK_WRITE_ONLY)
        self._proved_reads = proved_reads
        self._proved_writes = proved_writes
        #: Bounds guards dropped on static-analysis evidence (cumulative
        #: across every trace this translator builds).
        self.guards_elided = 0

    # -- trace construction ---------------------------------------------------

    def translate(self, entry: int) -> Fragment:
        """Translate the superblock starting at guest address ``entry``."""
        text_start = self._text_start
        text_end = self._text_end
        if not text_start <= entry < text_end:
            raise IllegalInstructionFault(
                f"jump target outside the code segment: 0x{entry:08x}"
            )
        code = self._memory.buffer
        chain = self._chain
        check_reads = self._check_reads
        check_writes = self._check_writes

        body: list[str] = []
        written: set[int] = set()       # guest registers assigned so far
        guards: set[int] = set()        # access widths needing a bounds local
        exits: list[int] = []           # static successor pc per chainable exit
        visited: set[int] = set()       # trace-local pcs (bounds trace growth)
        cc_written = False              # condition codes assigned in this trace
        cc_loaded = False               # entry must load vm.cc into locals

        #: Spill sites are emitted as placeholders and expanded during
        #: assembly with the *whole-trace* written sets.  This matters for
        #: looping fragments: a side exit positioned early in the loop body
        #: must still write back registers that instructions *after* it
        #: modified on previous iterations.  (For straight-line traces the
        #: extra spills write back unmodified entry values -- harmless.)
        SPILL = "\x00spill\x00"

        def spill_lines() -> list[str]:
            """Placeholder for the register/condition-code write-back."""
            return [SPILL]

        def exit_lines(executed: int, *, target: int | None = None,
                       expr: str | None = None) -> list[str]:
            """One fragment exit: account instructions, spill, leave."""
            lines = [f"vm.icount += {executed}"]
            lines += spill_lines()
            if expr is not None:                       # indirect: dynamic pc
                lines.append(f"return {expr}")
            elif chain:                                # back-patchable slot
                slot = len(exits)
                exits.append(target)
                lines.append(f"return X{slot} or {-(slot + 1)}")
            else:
                lines.append(f"return {target}")
            return lines

        #: Per-register value upper bounds along the linear trace.  The
        #: entry assumption is top (2**32 - 1, every register invariant), so
        #: the analysis stays sound across in-fragment back-edges: each
        #: iteration re-enters at the trace head, whose assumptions are the
        #: weakest.  Whenever an arithmetic result provably stays below
        #: 2**32 the ``& 0xffffffff`` normalisation is elided.
        bounds = [_MASK] * 8

        #: Common-subexpression state for guest addresses and bounds checks.
        #: vxc emits heavily frame-pointer-relative code, so the same
        #: ``r6 + disp`` address is computed (and checked) many times in a
        #: row; computing it into a local once and letting a wider check
        #: subsume narrower ones removes most of that cost.  Both caches are
        #: invalidated whenever the base register is rewritten; inside a
        #: looping fragment every cached local is recomputed at its original
        #: definition site each iteration, so linear reasoning stays sound.
        addr_vars: dict[tuple[int, int], str] = {}
        guarded: dict[str, int] = {}

        def invalidate(reg: int) -> None:
            for key in [k for k in addr_vars if k[0] == reg]:
                guarded.pop(addr_vars.pop(key), None)
            guarded.pop(f"r{reg}", None)

        def addr_of(base: int, disp: int) -> tuple[list[str], str]:
            """Lines + local-variable name holding a guest address."""
            if disp == 0:
                return [], f"r{base}"
            key = (base, disp)
            var = addr_vars.get(key)
            if var is not None:
                return [], var
            var = f"a{len(addr_vars)}_{base}"
            addr_vars[key] = var
            if 0 <= disp and bounds[base] + disp <= _MASK:
                return [f"{var} = r{base} + {disp}"], var
            return [f"{var} = r{base} + {disp} & {_MASK}"], var

        proved_reads = self._proved_reads
        proved_writes = self._proved_writes

        def guard(var: str, width: int, kind: str) -> list[str]:
            if guarded.get(var, 0) >= width:
                return []        # already covered by a wider check (CSE)
            if pc in (proved_writes if kind == "write" else proved_reads):
                # The verifier proved this site in bounds for any sandbox at
                # least min_size bytes large (checked by our caller).  The
                # elided site is deliberately NOT entered in ``guarded``: a
                # later unproved access through the same local must still
                # emit its own check.
                self.guards_elided += 1
                return []
            guarded[var] = width
            guards.add(width)
            return [f"if {var} > s{width}: _flt({var}, {width}, {kind!r})"]

        looping = False

        def back_edge_lines(executed: int) -> list[str]:
            """Jump back to the fragment entry *inside* the fragment.

            No spill or reload is needed -- the hoisted locals stay live --
            but the instruction budget must be enforced here, because a
            looping fragment may not return to the dispatcher for a long
            time (or, for a guest spinning forever, at all).
            """
            return [
                f"vm.icount += {executed}",
                "if vm.icount > vm.budget: _over(vm)",
                "continue",
            ]

        pc = entry
        count = 0
        limit = self._limit
        while True:
            if pc == entry and count:
                # A direct back-edge to the trace head: compile a real loop
                # instead of exiting, so iterations cost no dispatch, no
                # register spill/reload and no fragment call at all.
                looping = True
                body += back_edge_lines(count)
                break
            if (count >= limit or pc in visited
                    or (count and pc in self._known_entries)):
                # Trace budget exhausted, the trace rejoined itself, or we
                # ran into code that already has its own fragment: leave
                # through a chainable exit to wherever we stopped.
                body += exit_lines(count, target=pc)
                break
            visited.add(pc)
            try:
                insn = decode(code, pc)
            except InvalidInstructionError as error:
                if count == 0:
                    raise IllegalInstructionFault(str(error)) from None
                # Undecodable bytes beyond a side exit: fault lazily, only if
                # execution actually falls through to them.
                body += exit_lines(count, target=pc)
                break
            if pc + insn.length > text_end:
                if count == 0:
                    raise IllegalInstructionFault(
                        f"instruction at 0x{pc:08x} straddles the code segment end"
                    )
                body += exit_lines(count, target=pc)
                break
            count += 1
            op = insn.op
            rd = insn.rd
            rs = insn.rs
            imm = insn.imm
            next_pc = pc + insn.length

            # -- control flow (trace shaping) --------------------------------
            if op is Op.JMP:
                target = (next_pc + imm) & _MASK
                if not text_start <= target < text_end:
                    body += exit_lines(count, target=target)
                    break
                pc = target               # follow the direct branch in-trace
                continue
            if op in CONDITIONAL_JUMPS:
                target = (next_pc + imm) & _MASK
                if not cc_written and not cc_loaded:
                    cc_loaded = True      # taken edge reads inherited flags
                body.append(f"if {_CONDITION_EXPR[op]}:")
                if target == entry:
                    looping = True
                    body += ["    " + line
                             for line in back_edge_lines(count)]
                else:
                    body += ["    " + line
                             for line in exit_lines(count, target=target)]
                pc = next_pc              # keep translating the fall-through
                continue
            if op is Op.CALL:
                target = (next_pc + imm) & _MASK
                body.append(f"r7 = r7 - 4 & {_MASK}")
                invalidate(7)     # the pre-decrement guard no longer covers r7
                if check_writes:
                    body += guard("r7", 4, "write")
                body.append(f"_p32(buf, r7, {next_pc})")
                written.add(7)
                body += exit_lines(count, target=target)
                break
            if op is Op.RET:
                if check_reads:
                    body += guard("r7", 4, "read")
                body.append("t = _u32(buf, r7)[0]")
                body.append(f"r7 = r7 + 4 & {_MASK}")
                written.add(7)
                body += exit_lines(count, expr="t")
                break
            if op is Op.JMPR:
                body += exit_lines(count, expr=f"r{rd}")
                break
            if op is Op.CALLR:
                body.append(f"r7 = r7 - 4 & {_MASK}")
                invalidate(7)     # the pre-decrement guard no longer covers r7
                if check_writes:
                    body += guard("r7", 4, "write")
                body.append(f"_p32(buf, r7, {next_pc})")
                written.add(7)
                body += exit_lines(count, expr=f"r{rd}")
                break
            if op is Op.VXCALL:
                # The handler may grow guest memory, so the trace must end
                # here (the bounds locals would go stale); the continuation
                # is still statically known and therefore chainable.
                body.append(f"vm.icount += {count}")
                body += spill_lines()
                body.append(
                    "t, act = vm.syscall_handler.dispatch(r0, r1, r2, r3)")
                body.append(f"r0 = t & {_MASK}")
                body.append("r[0] = r0")
                body.append("if act == ACTION_EXIT:")
                body.append("    vm.halted = True")
                if chain:
                    slot = len(exits)
                    exits.append(next_pc)
                    body.append(f"return X{slot} or {-(slot + 1)}")
                else:
                    body.append(f"return {next_pc}")
                break
            if op is Op.HALT:
                body.append(f"vm.icount += {count}")
                body += spill_lines()
                body.append("vm.halted = True")
                body.append("vm.syscall_handler.exit_code = 0")
                body.append(f"return {next_pc}")
                break

            # -- straight-line instructions ----------------------------------
            lines, touched, touches_cc = self._straightline(
                op, rd, rs, imm, pc, addr_of, guard, invalidate,
                check_reads, check_writes, bounds)
            if touches_cc:
                cc_written = True
            body += lines
            written |= touched
            for reg in touched:
                invalidate(reg)
            pc = next_pc

        # -- assemble and compile the fragment --------------------------------
        params = "".join(f", X{i}=None" for i in range(len(exits)))
        prologue = ["r0, r1, r2, r3, r4, r5, r6, r7 = r"]
        if guards:
            if len(guards) == 1:
                width = next(iter(guards))
                prologue.append(f"s{width} = mem.size - {width}")
            else:
                prologue.append("size = mem.size")
                prologue += [f"s{w} = size - {w}" for w in sorted(guards)]
        if cc_written:
            # Exits spill the condition codes unconditionally, so the locals
            # must exist even on a path that exits before the first CMP.
            cc_loaded = True
        if cc_loaded:
            prologue.append("cca, ccb = vm.cc")
        final_spill: list[str] = []
        if written:
            if len(written) >= 4:
                final_spill.append("r[:] = r0, r1, r2, r3, r4, r5, r6, r7")
            else:
                final_spill.append("; ".join(
                    f"r[{i}] = r{i}" for i in sorted(written)))
        if cc_written:
            final_spill.append("vm.cc = (cca, ccb)")
        expanded: list[str] = []
        for line in body:
            if line.endswith(SPILL):
                indent = line[: -len(SPILL)]
                expanded += [indent + spill for spill in final_spill]
            else:
                expanded.append(line)
        body = expanded
        if looping:
            body = ["while True:"] + ["    " + line for line in body]
        source = "\n".join(
            [f"def _fragment(vm, r, mem, buf{params}):"]
            + ["    " + line for line in prologue + body]
        )
        namespace = dict(_FRAGMENT_GLOBALS)
        with _CODE_MEMO_LOCK:
            code_object = _CODE_MEMO.get(source)
        if code_object is None:
            code_object = compile(source, f"<vxa-fragment-0x{entry:x}>", "exec")
            with _CODE_MEMO_LOCK:
                if len(_CODE_MEMO) >= _CODE_MEMO_LIMIT:
                    _CODE_MEMO.clear()
                _CODE_MEMO[source] = code_object
        exec(code_object, namespace)
        return Fragment(
            entry=entry,
            func=namespace["_fragment"],
            instruction_count=count,
            end=pc,
            source=source,
            exit_targets=tuple(exits),
        )

    # -- per-instruction code generation ---------------------------------------

    def _straightline(self, op, rd, rs, imm, pc, addr_of, guard, invalidate,
                      check_reads, check_writes, bounds):
        """Emit code for one non-control-flow instruction.

        Returns ``(lines, written_registers, touches_cc)`` and updates
        ``bounds`` -- the per-register value upper bounds used to elide
        ``& 0xffffffff`` normalisations that provably cannot matter.
        """
        M = _MASK

        def alu(nb: int, expr: str):
            """Emit ``r{rd} = expr``, masking only when the bound demands it."""
            if nb > M:
                bounds[rd] = M
                return [f"r{rd} = {expr} & {M}"], {rd}, False
            bounds[rd] = nb
            return [f"r{rd} = {expr}"], {rd}, False

        # Data movement -------------------------------------------------------
        if op is Op.MOVI:
            bounds[rd] = imm
            return [f"r{rd} = {imm}"], {rd}, False
        if op is Op.MOV:
            bounds[rd] = bounds[rs]
            return [f"r{rd} = r{rs}"], {rd}, False
        if op is Op.LD32:
            setup, a = addr_of(rs, imm)
            if check_reads:
                setup += guard(a, 4, "read")
            setup.append(f"r{rd} = _u32(buf, {a})[0]")
            bounds[rd] = M
            return setup, {rd}, False
        if op is Op.LD16U:
            setup, a = addr_of(rs, imm)
            if check_reads:
                setup += guard(a, 2, "read")
                setup.append(f"r{rd} = buf[{a}] | buf[{a}+1] << 8")
            else:
                setup.append(f"r{rd} = _u16(buf, {a})[0]")
            bounds[rd] = 0xFFFF
            return setup, {rd}, False
        if op is Op.LD8U:
            setup, a = addr_of(rs, imm)
            if check_reads:
                setup += guard(a, 1, "read")
            setup.append(f"r{rd} = buf[{a}]")
            bounds[rd] = 0xFF
            return setup, {rd}, False
        if op is Op.LD16S:
            setup, a = addr_of(rs, imm)
            if check_reads:
                setup += guard(a, 2, "read")
                setup.append(f"t = buf[{a}] | buf[{a}+1] << 8")
            else:
                setup.append(f"t = _u16(buf, {a})[0]")
            setup.append(f"r{rd} = t + {_EXT16} if t >= 32768 else t")
            bounds[rd] = M
            return setup, {rd}, False
        if op is Op.LD8S:
            setup, a = addr_of(rs, imm)
            if check_reads:
                setup += guard(a, 1, "read")
            setup.append(f"t = buf[{a}]")
            setup.append(f"r{rd} = t + {_EXT8} if t >= 128 else t")
            bounds[rd] = M
            return setup, {rd}, False
        if op is Op.ST32:
            setup, a = addr_of(rd, imm)
            if check_writes:
                setup += guard(a, 4, "write")
            setup.append(f"_p32(buf, {a}, r{rs})")
            return setup, set(), False
        if op is Op.ST16:
            setup, a = addr_of(rd, imm)
            if check_writes:
                setup += guard(a, 2, "write")
            if bounds[rs] <= 0xFFFF:
                setup.append(f"_p16(buf, {a}, r{rs})")
            else:
                setup.append(f"_p16(buf, {a}, r{rs} & 65535)")
            return setup, set(), False
        if op is Op.ST8:
            setup, a = addr_of(rd, imm)
            if check_writes:
                setup += guard(a, 1, "write")
            if bounds[rs] <= 0xFF:
                setup.append(f"buf[{a}] = r{rs}")
            else:
                setup.append(f"buf[{a}] = r{rs} & 255")
            return setup, set(), False
        if op is Op.LEA:
            if imm == 0:
                bounds[rd] = bounds[rs]
                return [f"r{rd} = r{rs}"], {rd}, False
            if 0 <= imm and bounds[rs] + imm <= M:
                bounds[rd] = bounds[rs] + imm
                return [f"r{rd} = r{rs} + {imm}"], {rd}, False
            bounds[rd] = M
            return [f"r{rd} = r{rs} + {imm} & {M}"], {rd}, False
        if op is Op.PUSH:
            lines = [f"r7 = r7 - 4 & {M}"]
            invalidate(7)         # the pre-decrement guard no longer covers r7
            if check_writes:
                lines += guard("r7", 4, "write")
            lines.append(f"_p32(buf, r7, r{rd})")
            bounds[7] = M
            return lines, {7}, False
        if op is Op.POP:
            lines = []
            if check_reads:
                lines += guard("r7", 4, "read")
            lines.append(f"r{rd} = _u32(buf, r7)[0]")
            lines.append(f"r7 = r7 + 4 & {M}")
            bounds[rd] = M
            bounds[7] = M
            return lines, {rd, 7}, False

        # ALU register-register -------------------------------------------------
        if op is Op.ADD:
            return alu(bounds[rd] + bounds[rs], f"r{rd} + r{rs}")
        if op is Op.SUB:
            bounds[rd] = M
            return [f"r{rd} = r{rd} - r{rs} & {M}"], {rd}, False
        if op is Op.MUL:
            return alu(bounds[rd] * bounds[rs], f"r{rd} * r{rs}")
        if op is Op.DIVU:
            bounds[rd] = M
            return [f"r{rd} = _udiv(r{rd}, r{rs}, False)"], {rd}, False
        if op is Op.REMU:
            bounds[rd] = M
            return [f"r{rd} = _udiv(r{rd}, r{rs}, True)"], {rd}, False
        if op is Op.DIVS:
            bounds[rd] = M
            return [f"r{rd} = _sdiv(r{rd}, r{rs}, False)"], {rd}, False
        if op is Op.REMS:
            bounds[rd] = M
            return [f"r{rd} = _sdiv(r{rd}, r{rs}, True)"], {rd}, False
        if op is Op.AND:
            bounds[rd] = min(bounds[rd], bounds[rs])
            return [f"r{rd} &= r{rs}"], {rd}, False
        if op is Op.OR:
            bounds[rd] = (1 << max(bounds[rd].bit_length(),
                                   bounds[rs].bit_length())) - 1
            return [f"r{rd} |= r{rs}"], {rd}, False
        if op is Op.XOR:
            bounds[rd] = (1 << max(bounds[rd].bit_length(),
                                   bounds[rs].bit_length())) - 1
            return [f"r{rd} ^= r{rs}"], {rd}, False
        if op is Op.SHL:
            bounds[rd] = M
            return [f"r{rd} = r{rd} << (r{rs} & 31) & {M}"], {rd}, False
        if op is Op.SHRU:
            return [f"r{rd} >>= r{rs} & 31"], {rd}, False
        if op is Op.SHRS:
            if bounds[rd] < _SIGN:
                # The sign bit is provably clear: arithmetic == logical shift.
                return [f"r{rd} >>= r{rs} & 31"], {rd}, False
            bounds[rd] = M
            return [
                f"r{rd} = ((r{rd} ^ {_SIGN}) - {_SIGN}) >> (r{rs} & 31) & {M}"
            ], {rd}, False
        if op is Op.CMP:
            return [f"cca = r{rd}; ccb = r{rs}"], set(), True
        if op is Op.NOT:
            bounds[rd] = M
            return [f"r{rd} = ~r{rs} & {M}"], {rd}, False
        if op is Op.NEG:
            bounds[rd] = M
            return [f"r{rd} = -r{rs} & {M}"], {rd}, False

        # ALU register-immediate --------------------------------------------------
        if op is Op.ADDI:
            return alu(bounds[rd] + imm, f"r{rd} + {imm}")
        if op is Op.SUBI:
            bounds[rd] = M
            return [f"r{rd} = r{rd} - {imm} & {M}"], {rd}, False
        if op is Op.MULI:
            return alu(bounds[rd] * imm, f"r{rd} * {imm}")
        if op is Op.ANDI:
            bounds[rd] = min(bounds[rd], imm)
            return [f"r{rd} &= {imm}"], {rd}, False
        if op is Op.ORI:
            bounds[rd] = (1 << max(bounds[rd].bit_length(),
                                   imm.bit_length())) - 1
            return [f"r{rd} |= {imm}"], {rd}, False
        if op is Op.XORI:
            bounds[rd] = (1 << max(bounds[rd].bit_length(),
                                   imm.bit_length())) - 1
            return [f"r{rd} ^= {imm}"], {rd}, False
        if op is Op.SHLI:
            return alu(bounds[rd] << (imm & 31), f"r{rd} << {imm & 31}")
        if op is Op.SHRUI:
            bounds[rd] >>= imm & 31
            return [f"r{rd} >>= {imm & 31}"], {rd}, False
        if op is Op.SHRSI:
            if bounds[rd] < _SIGN:
                bounds[rd] >>= imm & 31
                return [f"r{rd} >>= {imm & 31}"], {rd}, False
            bounds[rd] = M
            return [
                f"r{rd} = ((r{rd} ^ {_SIGN}) - {_SIGN}) >> {imm & 31} & {M}"
            ], {rd}, False
        if op is Op.CMPI:
            return [f"cca = r{rd}; ccb = {imm}"], set(), True
        if op is Op.NOP:
            return [], set(), False
        raise IllegalInstructionFault(
            f"unhandled opcode {op!r} at 0x{pc:08x}")  # pragma: no cover


def run_translator(vm) -> None:
    """Run ``vm`` until exit/halt/fault using chained superblock fragments.

    The trampoline below is the analogue of vx32's dispatch loop.  A fragment
    returns one of three things:

    * a :class:`Fragment` -- a back-patched direct edge; continue there with
      no cache lookup (a *chained* transition),
    * a negative ``int`` -- an unlinked chainable exit; bit-inverted it is
      the exit slot whose static target must be resolved once and patched
      into the fragment's defaults,
    * a non-negative ``int`` -- a dynamically computed successor address
      (indirect branch); resolve it through the fragment cache's hash table.
    """
    memory = vm.memory
    regs = vm.regs
    stats = vm.stats
    cache = vm.code_cache
    use_cache = vm.use_fragment_cache
    chain = use_cache and vm.chain_fragments
    limits = vm.limits_in_effect          # the per-run (input-scaled) limits
    budget = limits.max_instructions
    if budget is None:
        budget = float("inf")
    vm.hard_budget = budget
    # With a deadline armed, vm.budget becomes a rolling checkpoint (see
    # _budget_exceeded); otherwise it is the hard budget, exactly as before.
    if vm.deadline is None:
        vm.budget = budget
    else:
        vm.budget = min(budget, DEADLINE_CHECK_INTERVAL)
    max_fragments = limits.max_fragments
    # Analysis-driven guard elision: only with a clean report whose proofs
    # cover the live sandbox (memory growth is monotone, so the size check
    # cannot be invalidated mid-run).
    proved_reads: frozenset = frozenset()
    proved_writes: frozenset = frozenset()
    report = getattr(vm, "analysis_report", None)
    if (getattr(vm, "analysis_elision", False) and report is not None
            and report.ok and memory.size >= report.min_size):
        proved_reads = report.proved_reads
        proved_writes = report.proved_writes
    translator = Translator(
        memory, vm.text_start, vm.text_end,
        superblock_limit=vm.superblock_limit, chain=chain,
        known_entries=cache.known if use_cache else None,
        proved_reads=proved_reads, proved_writes=proved_writes,
    )
    fragments = cache.fragments
    lru_capped = cache.limit is not None
    evictions_before = cache.evictions
    buf = memory.buffer

    blocks = 0
    misses = 0
    retranslated = 0
    chained = 0
    vm.icount = 0
    pc = vm.pc

    def resolve(target: int) -> Fragment:
        nonlocal misses, retranslated
        fragment = fragments.get(target) if use_cache else None
        if fragment is not None:
            if lru_capped:
                cache.touch(target)
            return fragment
        # The limit bounds translation-table memory.  An LRU cap above the
        # ceiling leaves this check to fire exactly as before; a cap below
        # it supersedes the check with a stricter bound (eviction keeps the
        # table under the cap, and translation work stays bounded by the
        # instruction budget -- every translation is a block transition).
        if use_cache and len(fragments) >= max_fragments:
            raise ResourceLimitExceeded(
                f"decoder exceeded the translated-fragment limit "
                f"({max_fragments})"
            )
        fragment = translator.translate(target)
        misses += 1
        if cache.note_translation(target):
            retranslated += 1
        if use_cache:
            cache.store(target, fragment)
        return fragment

    try:
        frag = resolve(pc)
        func = frag.func
        while True:
            blocks += 1
            try:
                ret = func(vm, regs, memory, buf)
            except (IndexError, struct.error) as error:
                # Unchecked-policy access past the sandbox: the struct
                # packers bounds-check against the backing store, so even
                # with guards elided nothing escapes or resizes the sandbox.
                # Only errors raised by the fragment's own code qualify --
                # an IndexError out of the syscall layer (reached via a
                # VXCALL inside the fragment) is a host bug and must
                # propagate loudly, not masquerade as a guest fault.
                traceback = error.__traceback__
                while traceback.tb_next is not None:
                    traceback = traceback.tb_next
                origin = traceback.tb_frame.f_code.co_filename
                if not origin.startswith("<vxa-fragment-"):
                    raise
                # The faulting address is not recoverable here; report the
                # fragment entry as the locus.
                raise MemoryFault(pc, 1, "access") from None
            if vm.halted:
                if ret.__class__ is int:
                    pc = ret if ret >= 0 else frag.exit_targets[-1 - ret]
                else:
                    pc = ret.entry
                break
            if vm.icount > vm.budget:
                _budget_exceeded(vm)
            if ret.__class__ is int:
                if ret >= 0:
                    # Indirect branch: the one remaining hash lookup.
                    pc = ret
                    frag = resolve(ret)
                    func = frag.func
                else:
                    # First crossing of a direct edge: resolve the successor
                    # and back-patch it into the exit slot.
                    slot = -1 - ret
                    pc = frag.exit_targets[slot]
                    successor = resolve(pc)
                    if chain:
                        defaults = list(func.__defaults__)
                        defaults[slot] = successor
                        func.__defaults__ = tuple(defaults)
                    frag = successor
                    func = successor.func
            else:
                # Chained transition: no lookup, no patching.
                chained += 1
                frag = ret
                func = ret.func
                pc = ret.entry
    finally:
        vm.pc = pc
        hits = blocks - misses if blocks >= misses else 0
        stats.instructions += vm.icount
        stats.blocks_executed += blocks
        stats.fragments_translated += misses
        stats.fragment_cache_misses += misses
        stats.fragment_cache_hits += hits
        stats.chained_branches += chained
        stats.retranslations += retranslated
        stats.guards_elided += translator.guards_elided
        stats.evictions += cache.evictions - evictions_before
