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


def test_phase_times_batch_prints_the_mean_seconds_per_fit():
    run = subprocess.run([sys.executable, TOOL, "--batch", "1", "--graphs", "12"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    head = lines[0].split()
    assert head[:5] == ["fit-batch", "seed", "1:", "12", "graphs,"]
    fitted, raised = int(head[5]), int(head[7])
    assert fitted + raised == 12 and fitted > 0
    assert lines[1] == "mean seconds per fit:"
    rows = dict(line.rsplit(None, 1) for line in lines[2:-2])
    assert [name.strip() for name in rows] == ["parse", *PHASES, "outside rounds"]
    assert all(float(v) >= 0.0 for v in rows.values())
    # the untimed counting pass: these small fits score moves mostly in the
    # scalar body, and take most merge phases by the scan
    for line, what, name in ((lines[-2], "move scorings", "scalar body"), (lines[-1], "merge phases", "scan")):
        head, _, share = line.partition(f", {name} ")
        assert head.startswith(f"mean {what} per fit: ")
        assert float(head.rsplit(None, 1)[1]) > 0.0
        assert share.endswith("%") and 50.0 < float(share[:-1]) <= 100.0
