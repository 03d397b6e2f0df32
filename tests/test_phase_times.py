import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "phase_times.py")
PHASES = ["start", "pre-opt", "merges", "post-opt"]


def test_phase_times_prints_the_phases_of_a_real_fit():
    run = subprocess.run([sys.executable, TOOL, "--seeds", "1", "--rounds", "1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split() == PHASES
    rows = [line.split() for line in lines if line.split()[:2] == ["1", "0"]]
    assert len(rows) == 1
    # seed, round, round seconds, five columns per phase, k and criterion
    row = rows[0]
    assert len(row) == 3 + 5 * len(PHASES) + 2
    assert all(row[3 + 5 * i + 4] in ("yes", "no") for i in range(len(PHASES)))
    median = [line.split() for line in lines if line.split()[0] == "median"]
    assert len(median) == 1 and len(median[0]) == 2 + 4 * len(PHASES)
    assert lines[-1].startswith("rounds not converged, of 1: ")
    assert all(f"{phase} " in lines[-1] for phase in PHASES)
