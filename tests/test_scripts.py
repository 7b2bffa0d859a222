"""Smoke tests: the example scripts run from the repository root."""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from plueckerfan import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, header", [
    (["scripts/facet_census.py", "5"], "  n   total  diamond  special     pbw    secs"),
    (["scripts/transfer_experiment.py", "3", "1"], "grid of 4 cells, dilation factor 1"),
])
def test_script_runs(argv, header):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_stdout_digests_lists_digest_and_exit_code(python_env, tmp_path):
    commands = tmp_path / "commands.txt"
    commands.write_text('# one run and one usage error\nfacets --n 3\n\n'
                        'straighten --kind M --n 4 --pair "1,2 1,3"\n')
    proc = subprocess.run([sys.executable, "scripts/stdout_digests.py", str(commands)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    facets = subprocess.run([sys.executable, "-m", "plueckerfan", "facets", "--n", "3"],
                            cwd=ROOT, capture_output=True, timeout=120, env=python_env).stdout
    empty = hashlib.sha256(b"").hexdigest()
    assert proc.stdout.splitlines() == [
        f"{hashlib.sha256(facets).hexdigest()} 0 facets --n 3",
        f'{empty} 2 straighten --kind M --n 4 --pair "1,2 1,3"',
    ]


def committed_commands():
    lines = (ROOT / "scripts" / "stdout_commands.txt").read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def test_committed_command_list_parses():
    commands = committed_commands()
    assert len(commands) == len(set(commands)) > 100
    for line in commands:
        cli.build_parser().parse_args(shlex.split(line))


def test_stdout_digests_runs_the_committed_list(tmp_path):
    head = committed_commands()[:6]
    commands = tmp_path / "commands.txt"
    commands.write_text("\n".join(head) + "\n")
    proc = subprocess.run([sys.executable, "scripts/stdout_digests.py", str(commands)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" ", 2) for line in proc.stdout.splitlines()]
    assert [cmd for _, _, cmd in rows] == head
    assert all(len(sha) == 64 and code == "0" for sha, code, _ in rows)


def test_paired_passes_in_process_compares_a_checkout_with_itself(tmp_path):
    runs = tmp_path / "runs.json"
    proc = subprocess.run([sys.executable, "scripts/paired_passes.py", str(ROOT), str(ROOT),
                           "--workload", "algebra", "--pairs", "1", "--in-process",
                           "--json", str(runs)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair  1 (parent first)  pass_s  parent ")
    summary = {line.split()[0]: line.split() for line in lines[2:]}
    assert set(summary) == {"pass_s", "group.relations.pass_s", "group.membership.pass_s"}
    assert all(row[-1] in ("0/1", "1/1") for row in summary.values())
    pair, = json.loads(runs.read_text())["pairs"]
    assert pair["first"] == "parent"
    assert pair["parent"]["metrics"].keys() == pair["change"]["metrics"].keys() == summary.keys()
