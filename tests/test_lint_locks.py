"""The AST lock-linter: the repo is clean, and violations are detected.

``tools/lint_locks.py`` guards three concurrency invariants (CodeCache state
mutations under ``self.lock``; ``_CODE_MEMO`` accesses under
``_CODE_MEMO_LOCK``; ``BatchService.stats`` mutations under
``self._lock``).  These tests pin both directions: the shipped sources
pass, and deliberately broken synthetic sources fail with pointed messages.
"""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_locks  # noqa: E402


def test_repository_is_clean():
    assert lint_locks.run() == []


def _cache_violations(tmp_path, body: str):
    path = tmp_path / "code_cache.py"
    path.write_text(body)
    return lint_locks.check_code_cache(path)


def test_detects_unlocked_counter_increment(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def record(self):
        self.evictions += 1
""")
    assert len(violations) == 1
    assert "self.evictions" in violations[0][2]


def test_detects_unlocked_mutation_through_alias(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def store(self, entry, fragment):
        fragments = self.fragments
        fragments[entry] = fragment
""")
    assert len(violations) == 1
    assert "self.fragments" in violations[0][2]


def test_detects_unlocked_mutating_method_call(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def wipe(self):
        self.known.clear()
""")
    assert len(violations) == 1
    assert "self.known.clear()" in violations[0][2]


def test_locked_mutations_pass(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def store(self, entry, fragment):
        with self.lock:
            fragments = self.fragments
            del fragments[next(iter(fragments))]
            self.fragments[entry] = fragment
            self.evictions += 1
""")
    assert violations == []


def test_init_is_exempt_and_reads_are_free(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def __init__(self):
        self.fragments = {}
        self.evictions = 0

    def lookup(self, entry):
        return self.fragments.get(entry)
""")
    assert violations == []


def test_service_stats_mutations_need_the_lock(tmp_path):
    path = tmp_path / "service.py"
    path.write_text("""
class BatchService:
    def __init__(self):
        self.stats = SessionStats()

    def _absorb(self, stats):
        self.stats.merge(stats)

    def _count(self):
        self.stats.decodes += 1

    def _locked(self, stats):
        with self._lock:
            self.stats.merge(stats)
            self.stats.decodes += 1

    def _read(self):
        return self.stats.as_dict()
""")
    violations = lint_locks.check_service_stats(path)
    assert [message for _, _, message in violations] == [
        "BatchService._absorb calls self.stats.merge() outside `with self._lock`",
        "BatchService._count mutates self.stats outside `with self._lock`",
    ]


@pytest.mark.parametrize("snippet,expect_clean", [
    ("_CODE_MEMO = {}\n", True),                      # definition site
    ("with _CODE_MEMO_LOCK:\n    _CODE_MEMO['k'] = 1\n", True),
    ("_CODE_MEMO['k'] = 1\n", False),
    ("value = _CODE_MEMO.get('k')\n", False),
])
def test_code_memo_access_rules(tmp_path, snippet, expect_clean):
    path = tmp_path / "translator.py"
    path.write_text(snippet)
    violations = lint_locks.check_code_memo(path)
    assert (violations == []) is expect_clean
