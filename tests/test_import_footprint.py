"""What a fresh interpreter loads to run the simulator.

With no ``__pycache__`` to read (``PYTHONDONTWRITEBYTECODE=1``, or a
fresh checkout), every module an entry point imports is compiled
before its first event, so a run pays for each module it loads.  The
package's import rule keeps that to the layers the run uses: package
``__init__``s import only modules every simulation needs, scheme and
sender modules load where ``Scenario`` builds them, and campaign,
validation and study modules load on first use.  Each case runs in a
new interpreter and reports the modules its code added to
``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a plain Tahoe/EBSN run must not load: the campaign layer,
#: the validation stack, the other schemes and senders, and the trace.
NOT_IN_A_PLAIN_RUN = {
    "multiprocessing",
    "logging",
    "socket",
    "pickle",
    "repro.experiments.parallel",
    "repro.experiments.runner",
    "repro.experiments.cache",
    "repro.experiments.faults",
    "repro.experiments.journal",
    "repro.experiments.figures",
    "repro.experiments.points",
    "repro.experiments.claims",
    "repro.core.snoop",
    "repro.core.split",
    "repro.core.quench",
    "repro.core.packet_size",
    "repro.tcp.reno",
    "repro.tcp.newreno",
    "repro.tcp.messages",
    "repro.metrics.trace",
}

#: Modules ``repro run`` must not load: pool, cache, journal, figures,
#: studies, replay bundles and checkers.
NOT_IN_REPRO_RUN = {
    "multiprocessing",
    "repro.experiments.parallel",
    "repro.experiments.cache",
    "repro.experiments.journal",
    "repro.experiments.figures",
    "repro.experiments.points",
    "repro.experiments.tables",
    "repro.experiments.claims",
    "repro.experiments.congestion",
    "repro.handoff",
    "repro.csdp",
    "repro.workloads",
    "repro.validate.bundle",
    "repro.validate.checkers",
}


#: Modules importing the figures must not load: the study modules,
#: and the registry of every table that imports them.
NOT_IN_THE_FIGURES = {
    "repro.csdp",
    "repro.handoff",
    "repro.experiments.congestion",
    "repro.workloads",
    "repro.experiments.tables",
}


def fresh(body: str):
    """Run ``body`` in a new interpreter with this checkout's ``src``
    first on the path; return what it assigned to ``out``, plus the
    modules it loaded under ``"loaded"``."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "out = {}\n"
        f"{body}\n"
        "out['loaded'] = sorted(set(sys.modules) - before)\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def offending(loaded, forbidden):
    """The loaded modules that are, or live under, a forbidden one."""
    return sorted(
        name
        for name in loaded
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    )


def test_lan_ebsn_run_loads_only_the_simulator():
    out = fresh(
        "from repro.experiments.config import lan_scenario\n"
        "from repro.experiments.topology import Scenario, Scheme\n"
        "config = lan_scenario(scheme=Scheme.EBSN, transfer_bytes=64 * 1024)\n"
        "out['completed'] = Scenario(config).run().completed\n"
    )
    assert out["completed"]
    assert "repro.core.ebsn" in out["loaded"]
    assert offending(out["loaded"], NOT_IN_A_PLAIN_RUN | {"repro.validate"}) == []


def test_cli_run_loads_no_campaign_or_study_module():
    out = fresh(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as printed:\n"
        "    out['code'] = main(['run', '--lan', '--transfer-kb', '64'])\n"
        "out['printed'] = printed.getvalue()\n"
    )
    assert out["code"] == 0
    assert "completed         : True" in out["printed"]
    assert offending(out["loaded"], NOT_IN_REPRO_RUN) == []


def test_figures_load_no_study_module():
    """A figure's campaign (perfbench's fig8-pool imports the figures)
    pays for no study and not for the table registry."""
    out = fresh("import repro.experiments.figures\n")
    assert "repro.experiments.points" in out["loaded"]
    assert offending(out["loaded"], NOT_IN_THE_FIGURES) == []


def test_cli_sweep_loads_no_study_module():
    """``repro sweep`` builds its spec from the figures' and the specs'
    modules, not from the table registry."""
    out = fresh(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as printed:\n"
        "    out['code'] = main(['sweep', '--lan', '--transfer-kb', '16',\n"
        "                        '--replications', '1', '--no-cache'])\n"
    )
    assert out["code"] == 0
    assert "repro.experiments.points" in out["loaded"]
    assert offending(out["loaded"], NOT_IN_THE_FIGURES) == []


def test_cli_validated_run_loads_no_bundle_writer():
    """Only a violation writes a replay bundle; a clean run loads none
    of the bundle module, the cache layer it imports, or pickle."""
    out = fresh(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as printed:\n"
        "    out['code'] = main(['run', '--lan', '--transfer-kb', '64', '--validate'])\n"
        "out['printed'] = printed.getvalue()\n"
    )
    assert out["code"] == 0
    assert "completed         : True" in out["printed"]
    assert "repro.validate.checkers" in out["loaded"]
    assert offending(
        out["loaded"],
        {"repro.validate.bundle", "repro.experiments.cache", "pickle"},
    ) == []


def test_every_public_name_resolves_to_its_defining_object():
    out = fresh(
        "import importlib\n"
        "import repro\n"
        "out['lazy'] = sorted(n for n in repro.__all__ if n not in vars(repro))\n"
        "out['unloaded'] = 'repro.experiments.runner' not in sys.modules\n"
        "out['wrong'] = [\n"
        "    name for name in repro.__all__ if name != '__version__'\n"
        "    and getattr(importlib.import_module(getattr(repro, name).__module__),"
        " name) is not getattr(repro, name)\n"
        "]\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "out['star'] = sorted(set(repro.__all__) - set(namespace))\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    out['missing_raises'] = True\n"
    )
    assert out["lazy"] == [
        "PacketTrace", "RenoSender", "ReplicatedResult", "run_replicated", "sweep",
    ]
    assert out["unloaded"]
    assert out["wrong"] == []
    assert out["star"] == []
    assert out["missing_raises"]
