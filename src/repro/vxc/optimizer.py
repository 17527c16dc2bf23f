"""Peephole optimisation of generated assembly.

The code generator favours simplicity over cleverness, so it produces a few
easily-removable patterns.  Cleaning them up matters more here than in a
conventional toolchain because every guest instruction is interpreted or
translated by the VM: smaller code is directly visible in the Figure 7
benchmark.  The passes are deliberately conservative -- they never move code
across labels.
"""

from __future__ import annotations


def _is_label(line: str) -> bool:
    stripped = line.strip()
    return stripped.endswith(":") and not stripped.startswith((".byte", ".word"))


def optimize_lines(lines: list[str]) -> list[str]:
    """Apply peephole passes until a fixed point is reached."""
    changed = True
    while changed:
        lines, changed_a = _remove_jump_to_next(lines)
        lines, changed_b = _fuse_push_pop(lines)
        lines, changed_c = _remove_redundant_moves(lines)
        changed = changed_a or changed_b or changed_c
    return lines


def optimize(source: str) -> str:
    """Optimise a whole assembly listing (string in, string out)."""
    return "\n".join(optimize_lines(source.splitlines())) + "\n"


def _remove_jump_to_next(lines: list[str]) -> tuple[list[str], bool]:
    """Delete ``jmp L`` when ``L:`` is the next label and nothing executes between."""
    output: list[str] = []
    changed = False
    for index, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("jmp "):
            target = stripped.split()[1]
            # Look ahead past labels only.
            lookahead = index + 1
            skip = False
            while lookahead < len(lines):
                next_line = lines[lookahead].strip()
                if not next_line:
                    lookahead += 1
                    continue
                if _is_label(lines[lookahead]):
                    if next_line[:-1] == target:
                        skip = True
                        break
                    lookahead += 1
                    continue
                break
            if skip:
                changed = True
                continue
        output.append(line)
    return output, changed


def _fuse_push_pop(lines: list[str]) -> tuple[list[str], bool]:
    """Rewrite adjacent ``push rX`` / ``pop rY`` into a register move."""
    output: list[str] = []
    changed = False
    index = 0
    while index < len(lines):
        line = lines[index]
        stripped = line.strip()
        if stripped.startswith("push ") and index + 1 < len(lines):
            next_stripped = lines[index + 1].strip()
            if next_stripped.startswith("pop "):
                source = stripped.split()[1]
                destination = next_stripped.split()[1]
                indent = line[: len(line) - len(line.lstrip())]
                if source != destination:
                    output.append(f"{indent}mov {destination}, {source}")
                changed = True
                index += 2
                continue
        output.append(line)
        index += 1
    return output, changed


def _remove_redundant_moves(lines: list[str]) -> tuple[list[str], bool]:
    """Delete ``mov rX, rX``."""
    output: list[str] = []
    changed = False
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("mov "):
            operands = [part.strip() for part in stripped[4:].split(",")]
            if len(operands) == 2 and operands[0] == operands[1]:
                changed = True
                continue
        output.append(line)
    return output, changed
