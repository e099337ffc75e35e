"""Guard against options that no caller sets.

Every defaulted field of a ``*Config`` dataclass, and every defaulted
parameter of a public function or of a public class's ``__init__``,
under ``src/repro`` must be set somewhere in the library, the
benchmarks, the examples or perfbench.  The test suite does not
count: an option only its own tests set is a constant no run varies.
Setting an option means passing it to its owner:

* a keyword, or an argument in its position, in a call that names the
  owner, including ``functools.partial(owner, ...)``.  A subclass that
  inherits or forwards ``__init__`` names its base, and a function
  that passes its ``**kwargs`` on names the callee too;
* a keyword in a ``replace(...)`` call, on each ``*Config`` whose
  options include every keyword that call passes;
* a ``**mapping`` into the owner (or into ``replace``): every keyword
  and string dict key in that file then counts as set.

An option nobody sets is a constant in disguise: make it one.  The few
options reached only through a call this scan cannot name (a callable
passed as a value and called later), and the test seams that tests
must be able to set, are listed in :data:`ALLOWED` with the reason.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Where a call must appear for its options to count as set.
REACH_DIRS = ("src", "benchmarks", "examples", "perfbench")

_ORACLE = "reference oracle: tests compare runs against it at their own sizes"

_REGISTRY = (
    "ParallelRunner calls every unit as resolve(run)(config, wall_timeout, "
    "validate) through the config-type registry"
)

#: Options set only through a call the scan cannot name, or on purpose
#: only by tests.
ALLOWED = {
    "run_unit.wall_timeout": _REGISTRY,
    "lan_scenario.record_trace": "`repro profile --lan` passes it as "
    "_study_config(args, lan_scenario, **fields), which calls cls(**fields)",
    "TahoeSender.record_cwnd": "Scenario builds the sender as "
    "sender_cls(...), the class picked by tcp_variant or sender_factory",
    "lan_scenario.seed": "`repro run --lan --seed N` passes it as "
    "_study_config(args, lan_scenario, **fields), which calls cls(**fields)",
    "InvariantViolationError.bundle_path": "__reduce__ passes it back "
    "when the error is unpickled",
    # Test seams: set only by tests, on purpose.
    "code_version_token.package_root": "tests hash a scratch tree",
    "main.argv": "tests drive the CLI in-process",
    "run_validated.checkers": "tests substitute checker doubles",
    "run_scenario.bundle_dir": "keeps test bundles out of the user's "
    "cache, which CI checks stays empty",
    "assert_serial_parallel_identical.config": _ORACLE,
    "assert_serial_parallel_identical.replications": _ORACLE,
    "assert_serial_parallel_identical.workers": _ORACLE,
    "assert_variants_agree_on_clean_channel.transfer_bytes": _ORACLE,
}


def _name(node):
    """The last name of a called expression (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _defaulted(fn):
    """{defaulted parameter: position, or None if keyword-only}."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional[:1] == ["self"]:
        positional = positional[1:]
    options = {name: positional.index(name)
               for name in positional[len(positional) - len(args.defaults):]}
    options.update(
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
    )
    return options


def _config_fields(cls):
    """{defaulted field: position} of a ``*Config`` dataclass, else None."""
    if not cls.name.endswith("Config") or not any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in cls.decorator_list
    ):
        return None
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
    return {s.target.id: i for i, s in enumerate(fields) if s.value is not None}


def _forwarded_to(fn):
    """Names of the callees ``fn`` passes its own ``**kwargs`` on to."""
    if fn.args.kwarg is None:
        return set()
    kwarg = fn.args.kwarg.arg
    return {
        _name(call.func)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and any(kw.arg is None and isinstance(kw.value, ast.Name)
                and kw.value.id == kwarg for kw in call.keywords)
    }


def _options(package=PACKAGE):
    """Every checked owner's options, and the names that call each owner.

    Returns ``(options, callers)``: ``options`` maps an owner to
    ``{option: position or None}`` (dataclass fields count positions in
    declaration order); ``callers`` maps a called name to the
    ``(owner, by_position)`` pairs a call of that name sets.
    """
    options = {}
    bases = {}
    forwards = defaultdict(set)
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                forwards[node.name] |= _forwarded_to(node)
                if not node.name.startswith("_"):
                    options[node.name] = _defaulted(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                bases[node.name] = [_name(b) for b in node.bases]
                init = next((s for s in node.body if isinstance(s, ast.FunctionDef)
                             and s.name == "__init__"), None)
                if init is None or _forwarded_to(init) == {"__init__"}:
                    fields = _config_fields(node)
                    if fields is not None:
                        options[node.name] = fields
                else:
                    options[node.name] = _defaulted(init)
    callers = defaultdict(set)
    for cls in bases:  # a subclass without its own signature is its base
        owner = cls
        while owner is not None and owner not in options:
            owner = next((b for b in bases.get(owner, ()) if b in bases), None)
        if owner is not None:
            callers[cls].add((owner, True))
    for owner in options:
        callers[owner].add((owner, True))

    def forwarded(name, seen):
        for callee in forwards.get(name, set()) - seen:
            seen.add(callee)
            yield from ((owner, False) for owner, _ in callers.get(callee, ()))
            yield from forwarded(callee, seen)

    for name in list(forwards):
        callers[name] |= set(forwarded(name, {name}))
    return options, callers


def _unreached(root=ROOT):
    """Qualnames (``owner.option``) of the options no call sets."""
    options, callers = _options(root / "src" / "repro")
    configs = [owner for owner in options if owner.endswith("Config")]
    reached = set()

    def mark(pairs, keywords, n_positional):
        for owner, by_position in pairs:
            for option, position in options[owner].items():
                if option in keywords or (
                    by_position and position is not None and position < n_positional
                ):
                    reached.add(f"{owner}.{option}")

    for path in (p for d in REACH_DIRS for p in sorted((root / d).rglob("*.py"))):
        keys = set()  # every keyword and string dict key in the file
        splatted = set()  # (owner, _) pairs a ``**mapping`` goes into
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys
                            if isinstance(k, ast.Constant) and isinstance(k.value, str))
            if not isinstance(node, ast.Call):
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            keys |= keywords
            name, args = _name(node.func), node.args
            if name == "partial" and args:
                name, args = _name(args[0]), args[1:]
            if name == "replace":
                pairs = {(owner, False) for owner in configs
                         if keywords <= options[owner].keys()}
            else:
                pairs = callers.get(name, set())
            n_positional = len(args)
            if any(isinstance(a, ast.Starred) for a in args):
                n_positional = 0
            mark(pairs, keywords, n_positional)
            if any(kw.arg is None for kw in node.keywords):
                splatted |= pairs
        mark(splatted, keys, 0)
    return {
        f"{owner}.{option}" for owner in options for option in options[owner]
    } - reached


class TestOptionReach:
    def test_every_option_is_set_or_allowed(self):
        stray = sorted(_unreached() - ALLOWED.keys())
        assert not stray, (
            "options no caller sets (make them constants, or add to "
            f"ALLOWED): {stray}"
        )

    def test_allowed_entries_are_current(self):
        """An entry for an option that is now set, or gone, must be dropped."""
        stale = sorted(ALLOWED.keys() - _unreached())
        assert not stale, f"stale ALLOWED entries: {stale}"

    def test_replace_sets_only_configs_declaring_all_its_keywords(self, tmp_path):
        """A shared field name is set only on the configs the call fits."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "configs.py").write_text(
            "from dataclasses import dataclass, replace\n"
            "\n"
            "@dataclass\n"
            "class AConfig:\n"
            "    shared: int = 1\n"
            "    only_a: int = 2\n"
            "\n"
            "@dataclass\n"
            "class BConfig:\n"
            "    shared: int = 1\n"
            "\n"
            "def tweak(config):\n"
            "    return replace(config, shared=3, only_a=4)\n"
        )
        assert _unreached(tmp_path) == {"BConfig.shared"}
