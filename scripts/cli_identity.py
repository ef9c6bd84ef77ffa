"""Compare the CLI of the working tree with the CLI of a git revision.

    python scripts/cli_identity.py [REV] [--fixtures DIR]

Extracts ``src/`` of REV (default ``HEAD``) with ``git archive`` into a
temporary directory, then runs every fixture x every command x each option
set below through both source trees, one job at a time, and reports every
job whose stdout, stderr or exit code differs.  The option sets include
lines the parser refuses, the help and one text report, whose ``(... ms)``
timing is masked before the comparison.  The same jobs also run on
section-stripped copies of ``fixtures/abelian_mixed.json``, written to the
temporary directory, and each command runs once with no FILE.  Exits 1 if
any job differs, 0 otherwise.  Standard library only.

Each job runs under a time limit and an address-space limit, so that a job
too large for one of the trees (a revision with the dense rank grows past
5 GB on the gl(2|1) adjoint triple at ``--max-n 3``) ends that job instead of
the machine's memory.  Such a job compares its exit code and stderr like any
other.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
JOB_TIMEOUT_S = 300
JOB_MEMORY_BYTES = 2 * 1024**3

COMMANDS = (
    "check-algebra",
    "check-triple",
    "check-crossed",
    "cohomology",
    "ch-cohomology",
    "deform",
    "ch-deform",
)

# The options after COMMAND FILE.  --order 3 reads each deformation past its
# file's order (1 or 2), the coefficients the file leaves out as zeros, up to
# an order whose pairs of coefficients (0 + 3, 1 + 2) are all off-diagonal.
# Then the --opt=value form and a unique prefix, one text report, four lines
# the parser or main refuses, and the help.
OPTION_SETS = (
    ("--format", "json", "--max-n", "3"),
    ("--format", "json", "--parity", "even"),
    ("--format", "json", "--parity", "odd"),
    ("--format", "json", "--order", "3"),
    ("--max-n=3", "--form", "json"),
    ("--format", "text"),
    ("--format", "json", "--max-n", "0"),
    ("--format", "json", "--parity", "sideways"),
    ("--format", "json", "--no-such-option"),
    ("--format", "json", "--max-n"),
    ("-h",),
    ("--help",),
)

# The sections each stripped copy of STRIPPED_FROM keeps.
STRIPPED_FROM = ROOT / "fixtures" / "abelian_mixed.json"
STRIPPED = {
    "no_deformation": ("g", "h", "action", "D"),
    "no_action": ("g", "h", "D"),
    "no_D": ("g", "h", "action"),
    "g_only": ("g",),
    "empty": (),
}
TIMING = re.compile(r"\(\d+\.\d ms\)$", re.M)


def extract(rev: str, dest: pathlib.Path, *paths: str) -> pathlib.Path:
    """Write ``paths`` of ``rev`` (its whole tree if none are given) under ``dest`` and return ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, *paths],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (JOB_MEMORY_BYTES, JOB_MEMORY_BYTES))


def write_stripped(dest: pathlib.Path):
    """Write the ``STRIPPED`` copies of ``STRIPPED_FROM`` under ``dest``; returns their paths."""
    doc = json.loads(STRIPPED_FROM.read_text(encoding="utf-8"))
    paths = []
    for name, keep in STRIPPED.items():
        path = dest / f"{STRIPPED_FROM.stem}.{name}.json"
        path.write_text(json.dumps({k: doc[k] for k in keep}), encoding="utf-8")
        paths.append(path)
    return paths


def run_cli(src: pathlib.Path, args):
    """(exit code, stdout with any timing masked, stderr) of one job; the exit code is
    "timeout" past the limit."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "supercochain", *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return proc.returncode, TIMING.sub("(... ms)", proc.stdout), proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    parser.add_argument("--fixtures", default=str(ROOT / "fixtures"), help="directory of JSON inputs")
    opts = parser.parse_args(argv)
    fixtures = sorted(pathlib.Path(opts.fixtures).glob("*.json"))
    if not fixtures:
        parser.error(f"no *.json files in {opts.fixtures}")
    with tempfile.TemporaryDirectory() as tmp:
        old_src = extract(opts.rev, pathlib.Path(tmp), "src") / "src"
        new_src = ROOT / "src"
        stripped = write_stripped(pathlib.Path(tmp))
        groups = {
            "on the fixtures": [[c, str(p), *o] for p in fixtures for c in COMMANDS for o in OPTION_SETS],
            "on stripped copies": [[c, str(p), *o] for p in stripped for c in COMMANDS for o in OPTION_SETS],
            "without FILE": [[c] for c in COMMANDS],
        }
        differ = 0
        for lines in groups.values():
            for args in lines:
                old, new = run_cli(old_src, args), run_cli(new_src, args)
                for label, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                    if a != b:
                        differ += 1
                        print(f"DIFF {label}: {' '.join(args)}")
                        print(f"  {opts.rev}: {a!r:.300}")
                        print(f"  working tree: {b!r:.300}")
    counts = ", ".join(f"{len(lines)} {name}" for name, lines in groups.items())
    print(f"{sum(map(len, groups.values()))} jobs ({counts}), {differ} differences against {opts.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
