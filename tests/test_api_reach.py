"""Guard against API that only its own tests reach.

Every top-level function or class, and every public method, under
``src/repro`` must be named somewhere outside its own ``def``/``class``
line: in the library, the benchmarks, the examples, perfbench, the
docs or the top-level design documents.  Only code counts (see
:func:`_words`): a comment, docstring or Markdown prose that mentions a
name does not keep it alive, and a method counts as named only by an
attribute access (``obj.name``), not by a local variable that shares
its name.  The test suite does not count, so code kept alive only by
its own tests fails here.  The few definitions kept
on purpose are listed in :data:`ALLOWED` with the reason.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Where a name must appear for its definition to count as reached.
REACH_DIRS = ("src", "benchmarks", "examples", "perfbench", "docs")
REACH_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_ORACLE = "reference oracle the property suite compares runs against"

#: Definitions reached only from tests, kept on purpose.
ALLOWED = {
    "predicted_ebsn_throughput_bps": "reference model: the EBSN simulation "
    "is validated against it",
    "CwndMutatingEbsnSender": "fault double: the validator must catch it",
    "BackwardsAckSender": "fault double: the validator must catch it",
    "ResurrectedEventSender": "fault double: the validator must catch it",
    "TwoStateChannel.survival_probability": "pins the survival formula "
    "corrupts() inlines",
    "assert_variants_agree_on_clean_channel": _ORACLE,
    "assert_serial_parallel_identical": _ORACLE,
    "ReplicatedResult.throughput_rel_std": "read by a test of retained behaviour",
    "Timer.expiry_time": "read by tests of retained behaviour",
    "DropTailQueue.is_empty": "read by tests of retained behaviour",
    "DropTailQueue.is_full": "read by a test of retained behaviour",
    "QueueStats.drop_rate": "read by a test of retained behaviour",
    "SnoopAgent.cached_segments": "read by a test of retained behaviour",
    "Fragment.is_last": "read by tests of retained behaviour",
    "LinkStats.loss_rate": "read by a test of retained behaviour",
    "RttEstimator.reset": "read by a test of retained behaviour",
    "WirelessPort.busy": "read by tests of retained behaviour",
    "ReplicatedResult.partial": "read by tests of retained behaviour",
    "EventLogAnalyzer.counts": "read by a test of retained behaviour",
    "EventLog.read": "parses the committed golden event logs in their tests",
}

WORD = re.compile(r"\w+")

#: A Markdown backtick span (its text is group 2).
SPAN = re.compile(r"(`+)(.+?)\1", re.S)

#: A ``"module:qualname"`` string literal, as the UNITS registry holds.
QUALNAME = re.compile(r"""(['"])[\w.]+:[\w.]+\1""")


def _definitions(package=PACKAGE):
    """(path, line, name, qualname) of every checked definition."""
    for path in sorted(package.rglob("*.py")):
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


def _words(path):
    """(line, word, attribute) triples that name something in ``path``.

    Markdown counts every word of its code (:func:`_markdown_code`).
    Python counts only NAME tokens, the names in f-string replacement
    fields, ``"module:qualname"`` strings and doctest (``>>>``) lines.
    ``attribute`` is true where the word can name a method: a NAME
    token right after ``.``, an attribute in an f-string, or any word
    of the other kinds.
    """
    text = path.read_text()
    if path.suffix != ".py":
        return [(0, w, True) for code in _markdown_code(text)
                for w in WORD.findall(code)]
    triples = []
    after_dot = False
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            triples.append((tok.start[0], tok.string, after_dot))
        elif tok.type == tokenize.STRING and "f" in _prefix(tok.string):
            # Python 3.12 tokenizes an f-string's fields into NAME
            # tokens; 3.10 and 3.11 return one STRING, so parse it.
            for node in ast.walk(ast.parse(tok.string, mode="eval")):
                line = tok.start[0] + getattr(node, "lineno", 1) - 1
                if isinstance(node, ast.Name):
                    triples.append((line, node.id, False))
                elif isinstance(node, ast.Attribute):
                    triples.append((line, node.attr, True))
        elif tok.type == tokenize.STRING:
            for n, line in enumerate(tok.string.splitlines(), tok.start[0]):
                if QUALNAME.fullmatch(line) or line.lstrip().startswith(">>>"):
                    triples += [(n, w, True) for w in WORD.findall(line)]
        after_dot = tok.type == tokenize.OP and tok.string == "."
    return triples


def _prefix(literal):
    """A string literal's lower-cased prefix (``f``, ``rb``, ...)."""
    return literal[: literal.index(literal[-1])].lower()


def _markdown_code(text):
    """The code in Markdown ``text``: fenced blocks, indented blocks
    (four spaces, after a blank line) and backtick spans."""
    code, prose = [], []
    fence = None
    indented, after_blank = False, True
    for line in text.splitlines():
        stripped = line.lstrip()
        if fence is not None:
            if stripped.startswith(fence):
                fence = None
            else:
                code.append(line)
            continue
        if stripped.startswith(("```", "~~~")):
            fence = stripped[:3]
            continue
        indented = line.startswith("    ") and (indented or after_blank)
        (code if indented else prose).append(line)
        after_blank = not stripped
    return code + [m.group(2) for m in SPAN.finditer("\n".join(prose))]


def _unreached(root=ROOT):
    """Qualnames never named outside their own definition line.

    A method (``Class.name``) counts only the words that can name a
    method; a top-level definition counts every word.
    """
    paths = [
        p
        for d in REACH_DIRS
        for p in (root / d).rglob("*")
        if p.is_file() and p.suffix in (".py", ".md")
    ]
    paths += [root / name for name in REACH_FILES]
    texts = {p: _words(p) for p in paths}
    words = Counter(w for triples in texts.values() for _, w, _ in triples)
    attributes = Counter(
        w for triples in texts.values() for _, w, attr in triples if attr
    )
    unreached = set()
    for path, line, name, qual in _definitions(root / "src" / "repro"):
        method = "." in qual
        counts = attributes if method else words
        own = sum(
            1 for n, w, attr in texts[path]
            if n == line and w == name and (attr or not method)
        )
        if counts[name] <= own:
            unreached.add(qual)
    return unreached


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

    def test_a_local_variable_does_not_reach_a_method(self, tmp_path):
        """Only ``obj.name`` reaches a method; a bare ``name`` does not."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        for name in REACH_FILES:
            (tmp_path / name).write_text("")
        (package / "queue.py").write_text(
            "class Queue:\n"
            "    def backlog(self):\n"
            "        return 0\n"
            "\n"
            "    def depth(self):\n"
            "        return 0\n"
            "\n"
            "def report(queue):\n"
            "    backlog = queue.depth()\n"
            "    return Queue, backlog\n"
        )
        assert _unreached(tmp_path) == {"Queue.backlog", "report"}

    QUEUE = (
        "class Queue:\n"
        "    def busy(self):\n"
        "        return False\n"
        "\n"
        "    def depth(self):\n"
        "        return 0\n"
        "\n"
        "    def drops(self):\n"
        "        return 0\n"
        "\n"
        "    def peak(self):\n"
        "        return 0\n"
    )

    def test_markdown_reaches_only_through_its_code(self, tmp_path):
        """Prose does not reach a method; a backtick span, a fenced
        block and an indented block do."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "queue.py").write_text(self.QUEUE + "\nQueue\n")
        (tmp_path / "README.md").write_text(
            "The link is busy while\n"
            "the queue has a `q.depth()`.\n"
            "\n"
            "```\n"
            "q.drops()\n"
            "```\n"
            "\n"
            "    q.peak()\n"
        )
        for name in REACH_FILES[1:]:
            (tmp_path / name).write_text("")
        assert _unreached(tmp_path) == {"Queue.busy"}

    def test_an_fstring_field_reaches_a_method(self, tmp_path):
        """Names in an f-string's fields count on every Python version
        (3.12 tokenizes them; earlier versions return one string)."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        for name in REACH_FILES:
            (tmp_path / name).write_text("")
        (package / "queue.py").write_text(
            self.QUEUE
            + "\n"
            "def report(q):\n"
            "    return f'{q.depth()} deep, {len([q.drops()])} dropped, peak'\n"
            "\n"
            "report(Queue())\n"
        )
        assert _unreached(tmp_path) == {"Queue.busy", "Queue.peak"}
