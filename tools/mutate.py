#!/usr/bin/env python3
"""Mutation audit: applies each mutant of tools/mutants.tsv to a scratch copy
of the working tree and reports which check, if any, notices it.

Usage, from the repository root:

    python3 tools/mutate.py --check           # every pattern matches once
    python3 tools/mutate.py [--only 3,17] [--work DIR]

A line of mutants.tsv is a file, a literal pattern that occurs exactly once in
it, its replacement and a one-line reason, separated by tabs (`\\n` in a
pattern or replacement stands for a newline). Lines starting with `#` are
comments. A reason starting with `equivalent:` marks a mutant that no input
the engine can be given tells from the original. Mutants are numbered from 1
in list order.

Each mutant meets the checks in this order, and its fate is the first that
notices it: `killed` by a tier-1 test (`cargo test -q --offline`, named),
`figure` (`ntc experiment <id> --seed 42`, for every id `ntc experiments`
lists but fig11_scale, rewrites its committed results/ file or log),
`digest` (a perfbench sim_digest moves: one 1 s op per workload at seed 42),
else `survived` (`equivalent` when the list says so). Before the first
mutant, the unmutated copy is built and checked the same way, and its timed
tier-1 run and figure pass set the bounds: a mutant's tier-1 run or figure
pass that takes more than three times as long, and over a minute, is
`killed: timeout`. The copy and its builds live under DIR (default
target/mutate), so a rerun builds incrementally. Exits 1 if a pattern does not match exactly once, the
unmutated copy fails a check, a mutant does not build, or one that is not
marked equivalent gets past every gated check (fate `digest` or `survived`:
no test and no figure sees it).
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mixed_day", "overload_4x", "scale_100k")
# How many times the unmutated copy's tier-1 run or figure pass a mutant's
# may take, and the least it is given, so that a busy host does not pass a
# slow survivor off as killed.
SLACK, MIN_BOUND = 3, 60
# perfbench/run.py builds perfbench within this bound too.
DIGEST_TIMEOUT = 1800


def mutants():
    out = []
    for line in (ROOT / "tools" / "mutants.tsv").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            file, pattern, replacement, reason = line.replace("\\n", "\n").split("\t")
            out.append((file, pattern, replacement, reason))
    return out


def run(cmd, cwd, target, timeout=None):
    """Runs `cmd`; returns its status (None on a timeout), stdout and stderr.
    A timeout kills the whole process group, so a test binary that cargo
    started does not outlive it."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as p:
        try:
            out, err = p.communicate(timeout=timeout)
            return p.returncode, out, err
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            return None, "", "timed out"


def tier1(tree, target, bound):
    """The tier-1 fate, and how long the tests took once built."""
    if run(["cargo", "test", "--no-run", "-q", "--offline"], tree, target)[0]:
        return "build error", 0
    start = time.monotonic()
    code, out, err = run(["cargo", "test", "-q", "--offline"], tree, target, bound)
    took = time.monotonic() - start
    if code == 0:
        return None, took
    if code is None:
        return "killed: timeout", took
    tests = sorted(set(re.findall(r"^---- (\S+) stdout ----", out, re.M)))
    where = re.findall(r"test failed, to rerun pass `([^`]*)`", err)
    return f"killed: {' '.join(tests) or 'a test binary'} ({' '.join(where)})", took


def figures(tree, target, scratch, bound):
    """The figure fate, and how long the experiments took once built."""
    if run(["cargo", "build", "--release", "--offline", "-q", "--bin", "ntc"], tree, target)[0]:
        return "build error", 0
    ntc = str(target / "release" / "ntc")
    ids = [i for i in run([ntc, "experiments"], tree, target)[1].split() if i != "fig11_scale"]
    start = time.monotonic()
    moved = []
    for i in ids:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        left = None if bound is None else max(bound - (time.monotonic() - start), 0.1)
        code, out, _ = run([ntc, "experiment", i, "--seed", "42"], scratch, target, left)
        if code is None:
            return "killed: timeout", time.monotonic() - start
        made = scratch / "results" / f"{i}.json"
        if (code != 0 or not made.is_file()
                or out != (tree / f"results/logs/{i}.txt").read_text()
                or made.read_bytes() != (tree / f"results/{i}.json").read_bytes()):
            moved.append(i)
    return (f"figure: {' '.join(moved)}" if moved else None), time.monotonic() - start


def digests(tree, target):
    found = {}
    for w in WORKLOADS:
        cmd = ["python3", "perfbench/run.py", "--workload", w, "--seed", "42", "--seconds", "1",
               "--trace", "0"]
        out = run(cmd, tree, target, DIGEST_TIMEOUT)[1]
        found[w] = re.findall(r"^sim_digest \S+ (\S+)$", out, re.M)
    return found


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true", help="only check that every pattern applies")
    p.add_argument("--only", help="comma-separated mutant numbers to run")
    p.add_argument("--work", default=str(ROOT / "target" / "mutate"))
    args = p.parse_args()
    listed = mutants()
    bad = [f"{i}: {f}: pattern occurs {(ROOT / f).read_text().count(pat)} times"
           for i, (f, pat, _, _) in enumerate(listed, 1) if (ROOT / f).read_text().count(pat) != 1]
    print("\n".join(bad) or f"{len(listed)} mutants apply")
    if bad or args.check:
        return 1 if bad else 0

    work = Path(args.work).resolve()
    tree, target = work / "tree", work / "target"
    shutil.rmtree(tree, ignore_errors=True)
    files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                           capture_output=True, text=True, check=True).stdout.split("\0")
    # Fresh mtimes: a copy that kept the sources' older ones would let cargo
    # reuse what the last run built from its last mutant.
    for f in filter(None, files):
        if (ROOT / f).is_file():
            (tree / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / f, tree / f)
    tier1_fate, tier1_took = tier1(tree, target, None)
    figure_fate, figures_took = figures(tree, target, work / "figs", None)
    if tier1_fate or figure_fate:
        print(f"the unmutated copy fails: {tier1_fate or figure_fate}")
        return 1
    bounds = (max(SLACK * tier1_took, MIN_BOUND), max(SLACK * figures_took, MIN_BOUND))
    print(f"bounds: tier-1 {bounds[0]:.0f} s, figures {bounds[1]:.0f} s", flush=True)
    baseline = digests(tree, work / "bench")
    print("baseline", " ".join(f"{w} {d}" for w, d in baseline.items()), flush=True)
    only = {int(n) for n in args.only.split(",")} if args.only else None
    failed = 0
    for i, (file, pattern, replacement, reason) in enumerate(listed, 1):
        if only and i not in only:
            continue
        original = (tree / file).read_text()
        line = original[: original.index(pattern)].count("\n") + 1
        (tree / file).write_text(original.replace(pattern, replacement))
        try:
            fate = (tier1(tree, target, bounds[0])[0]
                    or figures(tree, target, work / "figs", bounds[1])[0])
            if fate is None:
                moved = [w for w, d in digests(tree, work / "bench").items() if d != baseline[w]]
                fate = f"digest: {' '.join(moved)}" if moved else None
        finally:
            (tree / file).write_text(original)
        if fate is None:
            fate = "equivalent" if reason.startswith("equivalent:") else "survived"
        failed += fate in ("build error", "survived") or fate.startswith("digest")
        print(f"{i}\t{file}:{line}\t{fate}\t{reason}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
