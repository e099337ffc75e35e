"""Guard against API that only its own tests reach.

Every top-level function or class, and every public method, under
``src/repro`` must be named somewhere outside its own ``def``/``class``
line: in the library, the benchmarks, the examples, perfbench, the
docs or the top-level design documents.  The test suite does not
count, so code kept alive only by its own tests fails here.  The few
definitions kept on purpose are listed in :data:`ALLOWED` with the
reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Where a name must appear for its definition to count as reached.
REACH_DIRS = ("src", "benchmarks", "examples", "perfbench", "docs")
REACH_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: Definitions reached only from tests, kept on purpose.
ALLOWED = {
    "predicted_ebsn_throughput_bps": "reference model: the EBSN simulation "
    "is validated against it",
    "CwndMutatingEbsnSender": "fault double: the validator must catch it",
    "BackwardsAckSender": "fault double: the validator must catch it",
    "CompactingResurrectedEventSender": "fault double: the validator must "
    "catch it",
    "ReplicatedResult.throughput_rel_std": "read by a test of retained behaviour",
    "SweepSeries.throughputs_kbps": "read by a test of retained behaviour",
    "Timer.expiry_time": "read by tests of retained behaviour",
    "DropTailQueue.is_empty": "read by tests of retained behaviour",
    "DropTailQueue.is_full": "read by a test of retained behaviour",
    "QueueStats.drop_rate": "read by a test of retained behaviour",
    "SnoopAgent.cached_segments": "read by a test of retained behaviour",
    "Fragment.is_last": "read by tests of retained behaviour",
    "LinkStats.loss_rate": "read by a test of retained behaviour",
    "RttEstimator.reset": "read by a test of retained behaviour",
}

WORD = re.compile(r"\w+")


def _definitions():
    """(path, line, name, qualname) of every checked definition."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield path, node.lineno, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not sub.name.startswith("_"):
                        yield path, sub.lineno, sub.name, f"{node.name}.{sub.name}"


def _reach_texts():
    """Path -> lines of every file a reaching name may appear in."""
    paths = [
        p
        for d in REACH_DIRS
        for p in (ROOT / d).rglob("*")
        if p.is_file() and p.suffix in (".py", ".md")
    ]
    paths += [ROOT / name for name in REACH_FILES]
    return {p: p.read_text().splitlines() for p in paths}


def _unreached():
    """Qualnames never named outside their own definition line."""
    texts = _reach_texts()
    words = Counter(w for lines in texts.values() for line in lines
                    for w in WORD.findall(line))
    return {
        qual
        for path, line, name, qual in _definitions()
        if words[name] <= WORD.findall(texts[path][line - 1]).count(name)
    }


class TestApiReach:
    def test_every_definition_is_reached_or_allowed(self):
        stray = sorted(_unreached() - ALLOWED.keys())
        assert not stray, (
            f"reached only from tests (delete, use, or add to ALLOWED): {stray}"
        )

    def test_allowed_entries_are_current(self):
        """An entry for code that is now used, or gone, must be dropped."""
        stale = sorted(ALLOWED.keys() - _unreached())
        assert not stale, f"stale ALLOWED entries: {stale}"
