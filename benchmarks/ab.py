"""Unit-paired CPU and memory A/B: a git revision against the working tree.

    python benchmarks/ab.py PARENT_REV [--grid fig8|lan|wan|studies] [--reps N] [--units N]

Whole-pass timings on a shared host swing too widely to resolve a
10% change: identical fig8-pool passes on a 2-vCPU Xeon ranged from
1.87 s to 2.81 s.  This script pairs at the unit level instead; on
the same host, its per-rep CPU ratios for one change stayed within
3% of each other:

* ``PARENT_REV`` and the working tree are exported with ``git archive``
  into a temporary directory.  The working tree is the commit
  ``git stash create`` records (``HEAD`` when nothing is modified), so
  both sides are clean exports and neither reads the checkout.
  Untracked files are not part of that commit: ``git add`` them first.
* One long-lived child process per export imports that export's
  ``repro`` and runs the units it is sent, timing each with
  ``time.process_time``.
* Each unit runs on both sides, one side at a time; which side goes
  first alternates from unit to unit and from rep to rep.
* Both sides must report the same output for every unit (throughput,
  retransmitted KB, timeouts, segments sent, completion and duration,
  compared exactly).

The grids are figure 8's (EBSN on the WAN: 4 bad periods x 9 packet
sizes x seeds 1-3, 100 KB each, 108 units), figure 10's (BASIC and
EBSN on the LAN at 7 bad periods, 4 MB each, 14 units) and the WAN
scheme set (seeds 1-4 x all 6 schemes at 576 B and bad period 2.0,
100 KB each, 24 units: the only grid with the snoop, split and quench
paths; the units of perfbench's ``wan-observed``, run without its
observers).  The studies grid is perfbench's ``studies-mix``: the 4
handoff schemes, the 3 CSDP schedulers, and BASIC and EBSN with ECN
off and on at 0.9 cross load, 11 units run through the campaign
layer's ``run_unit``; their outputs are the ``repr`` of each unit's
summary.  ``--units N`` keeps the first N units of the grid, so
``--grid wan --units 6`` runs each scheme once.

Per rep it prints the CPU ratio, working tree over parent, summed over
the units, and each side's peak resident set so far (the child's
``ru_maxrss``, in MB; every unit of the grid is built once before the
first rep, so the peak covers those builds too); at the end the median,
min and max of that ratio and each side's final peak.  Exit status: 0
when every output matched, 1 when any differed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

GRIDS = ("fig8", "lan", "wan", "studies")


# ----------------------------------------------------------------------
# Child side: runs in an export, with that export's src on PYTHONPATH.
# ----------------------------------------------------------------------

def grid_configs(grid: str) -> list:
    """The grid's unit configs, in a fixed order."""
    from repro.experiments import config
    from repro.experiments.topology import Scheme

    if grid == "fig8":
        return [
            config.wan_scenario(
                scheme=Scheme.EBSN,
                packet_size=size,
                bad_period_mean=bad,
                seed=seed,
                record_trace=False,
            )
            for bad in config.WAN_BAD_PERIODS
            for size in config.WAN_PACKET_SIZES
            for seed in (1, 2, 3)
        ]
    if grid == "studies":
        from repro.csdp import CsdpStudyConfig
        from repro.experiments.congestion import CongestedScenarioConfig
        from repro.handoff import HandoffConfig, HandoffScheme

        return (
            [HandoffConfig(scheme=scheme) for scheme in HandoffScheme]
            + [CsdpStudyConfig(scheduler=name) for name in ("fifo", "rr", "csdp")]
            + [
                CongestedScenarioConfig(scheme=scheme, ecn=ecn, cross_load=0.9)
                for scheme in (Scheme.BASIC, Scheme.EBSN)
                for ecn in (False, True)
            ]
        )
    if grid == "wan":
        return [
            config.wan_scenario(
                scheme=scheme,
                packet_size=576,
                bad_period_mean=2.0,
                seed=seed,
                record_trace=False,
            )
            for seed in (1, 2, 3, 4)
            for scheme in Scheme
        ]
    return [
        config.lan_scenario(scheme=scheme, bad_period_mean=bad)
        for scheme in (Scheme.BASIC, Scheme.EBSN)
        for bad in config.LAN_BAD_PERIODS
    ]


def child(grid: str, tree: str) -> None:
    """Serve unit indices from stdin; answer one JSON line per unit."""
    import repro
    from repro.engine.simulator import Simulator
    from repro.experiments.parallel import run_unit, topology_of
    from repro.experiments.topology import Scenario

    if not Path(repro.__file__).resolve().is_relative_to(Path(tree).resolve()):
        raise SystemExit(f"imported {repro.__file__}, not the export under {tree}")
    # Keep every simulator a unit builds, to sum its heap pushes.
    sims = []
    build = Simulator.__init__

    def keeping(sim, *args, **kwargs):
        build(sim, *args, **kwargs)
        sims.append(sim)

    Simulator.__init__ = keeping
    configs = grid_configs(grid)
    # Build every unit once, untimed: a topology imports its scheme's
    # and sender's modules when it is built, a one-off cost no timed
    # unit should carry on either side.
    for cfg in configs:
        topology_of(cfg)(cfg)
    sims.clear()
    print(json.dumps({"units": len(configs)}), flush=True)
    for line in sys.stdin:
        cfg = configs[int(line)]
        sims.clear()
        start = time.process_time()
        if grid == "studies":
            output = repr(run_unit(cfg))
        else:
            result = Scenario(cfg).run()
            m = result.metrics
            output = repr((
                m.throughput_bps, m.retransmitted_kbytes, m.timeouts,
                m.segments_sent, result.completed, m.duration,
            ))
        cpu = time.process_time() - start
        print(json.dumps({
            "cpu": cpu,
            "output": output,
            "heap_pushes": sum(sim.heap_pushes for sim in sims),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }), flush=True)


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------

def git(root: Path, *args: str) -> str:
    """Run git in ``root`` and return its stripped stdout."""
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(root: Path, rev: str, dest: Path) -> None:
    """Write a clean ``git archive`` of ``rev`` into ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=root, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


class Side:
    """One long-lived child serving units from one export."""

    def __init__(self, label: str, tree: Path, grid: str) -> None:
        self.label = label
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", grid, str(tree)],
            cwd=tree, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.units = self._read()["units"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"{self.label} child exited (status {self.proc.wait()})")
        return json.loads(line)

    def run(self, index: int) -> dict:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """End the child: EOF on its stdin, then kill it if it lingers."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def compare(parent: Side, tree: Side, units: int, reps: int) -> int:
    """Run the paired reps and print the report; return the exit status."""
    ratios = []
    mismatches = 0
    peak = {parent.label: 0.0, tree.label: 0.0}
    for rep in range(reps):
        cpu = {parent.label: 0.0, tree.label: 0.0}
        pushes = {parent.label: 0, tree.label: 0}
        for index in range(units):
            order = (parent, tree) if (index + rep) % 2 == 0 else (tree, parent)
            outputs = {}
            for side in order:
                reply = side.run(index)
                cpu[side.label] += reply["cpu"]
                pushes[side.label] += reply["heap_pushes"]
                peak[side.label] = reply["peak_rss_mb"]
                outputs[side.label] = reply["output"]
            if outputs[parent.label] != outputs[tree.label]:
                mismatches += 1
                print(f"rep {rep + 1} unit {index}: outputs differ\n"
                      f"  {parent.label}: {outputs[parent.label]}\n"
                      f"  {tree.label}: {outputs[tree.label]}")
        ratio = cpu[tree.label] / cpu[parent.label]
        ratios.append(ratio)
        print(f"rep {rep + 1}: cpu {parent.label} {cpu[parent.label]:.3f} s, "
              f"{tree.label} {cpu[tree.label]:.3f} s, ratio {ratio:.3f}; "
              f"heap pushes {pushes[parent.label]} -> {pushes[tree.label]}; "
              f"peak rss {peak[parent.label]:.2f} -> {peak[tree.label]:.2f} MB",
              flush=True)
    print(f"cpu ratio ({tree.label}/{parent.label}) over {reps} rep(s) of "
          f"{units} unit(s): median {statistics.median(ratios):.3f}, "
          f"min {min(ratios):.3f}, max {max(ratios):.3f}; "
          f"peak rss {parent.label} {peak[parent.label]:.2f} MB, "
          f"{tree.label} {peak[tree.label]:.2f} MB")
    if mismatches:
        print(f"FAIL: {mismatches} unit run(s) with different outputs")
        return 1
    print(f"outputs identical on all {units * reps} paired unit runs")
    return 0


def main(argv=None) -> int:
    """Parse arguments, export both trees, run the comparison."""
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        child(*argv[1:3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV",
                        help="the git revision to compare the working tree against")
    parser.add_argument("--grid", choices=GRIDS, default="fig8")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--units", type=int, default=None,
                        help="run only the first N units of the grid")
    args = parser.parse_args(argv)
    if args.reps < 1 or (args.units is not None and args.units < 1):
        parser.error("--reps and --units must be at least 1")

    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    try:
        parent_rev = git(root, "rev-parse", "--verify", f"{args.parent_rev}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"not a revision: {args.parent_rev}")
    tree_rev = git(root, "stash", "create") or git(root, "rev-parse", "HEAD")
    print(f"parent {parent_rev[:12]} vs working tree {tree_rev[:12]}, grid {args.grid}",
          flush=True)

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = []
        try:
            for label, rev in (("parent", parent_rev), ("tree", tree_rev)):
                dest = Path(tmp) / label
                export(root, rev, dest)
                sides.append(Side(label, dest, args.grid))
            parent, tree = sides
            units = parent.units if args.units is None else min(args.units, parent.units)
            return compare(parent, tree, units, args.reps)
        finally:
            for side in sides:
                side.close()


if __name__ == "__main__":
    sys.exit(main())
