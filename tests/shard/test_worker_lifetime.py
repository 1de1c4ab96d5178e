"""Shard workers die with their parent.

A SIGKILLed parent runs no cleanup: nothing sends ``stop`` and nothing
joins the workers.  What ends them is EOF on their pipes, which arrives
only if the dead parent was the last holder of every parent-side end.
Forked workers inherit those ends (their own lane's and every earlier
lane's), so each worker must drop them, or the ring outlives its parent.

A reaper process makes itself the child subreaper, starts a holder
process that builds a 2-shard ring, SIGKILLs the holder and waits up to
5 s for the orphaned workers — now its children — to exit.  Any that
survive are killed and reported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

HOLDER = """
import json, time
from repro.shard import ShardedEngine, SummarySpec

eng = ShardedEngine(SummarySpec("AdaptiveHull", {"r": 8}), shards=2)
eng.ingest_arrays(["a", "b", "c", "d"], [[0, 0], [1, 0], [0, 1], [1, 1]])
print(json.dumps([p.pid for p in eng._procs]), flush=True)
time.sleep(120)
"""

REAPER = """
import ctypes, json, os, signal, subprocess, sys, time

PR_SET_CHILD_SUBREAPER = 36
ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def children():
    me, out = str(os.getpid()), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = open(f"/proc/{entry}/stat").read()
        except OSError:
            continue
        if stat[stat.rfind(")") + 2:].split()[1] == me:
            out.append(int(entry))
    return out


holder = subprocess.Popen([sys.executable, "-c", sys.argv[1]], stdout=subprocess.PIPE)
workers = json.loads(holder.stdout.readline())
holder.kill()
holder.wait()
deadline = time.monotonic() + 5.0
while True:
    left = children()
    for pid in left:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
    left = children()
    if not left or time.monotonic() > deadline:
        break
    time.sleep(0.05)
for pid in left:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
print(json.dumps({"workers": workers, "survivors": left}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs prctl and /proc")
def test_workers_exit_when_the_parent_is_sigkilled():
    proc = subprocess.run(
        [sys.executable, "-c", REAPER, HOLDER],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(result["workers"]) == 2
    assert result["survivors"] == []
