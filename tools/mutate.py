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
`figure` (an experiment binary other than fig11 at --seed 42 rewrites its
committed results/ file or log), `digest` (a perfbench sim_digest moves: one
1 s op per workload at seed 42), else `survived` (`equivalent` when the list
says so). The copy and its builds live under DIR (default target/mutate), so
a rerun builds incrementally. Exits 1 if a pattern does not match exactly
once, a mutant does not build, or one that is not marked equivalent gets past
every gated check (fate `digest` or `survived`: no test and no figure sees
it).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mixed_day", "overload_4x", "scale_100k")


def mutants():
    out = []
    for line in (ROOT / "tools" / "mutants.tsv").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            file, pattern, replacement, reason = line.replace("\\n", "\n").split("\t")
            out.append((file, pattern, replacement, reason))
    return out


def run(cmd, cwd, target, timeout=1800):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
        return p.returncode, p.stdout, p.stderr
    except subprocess.TimeoutExpired:
        return None, "", "timed out"


def tier1(tree, target):
    code, out, err = run(["cargo", "test", "-q", "--offline"], tree, target)
    if code == 0:
        return None
    if code is None:
        return "killed: timeout"
    if "could not compile" in err:
        return "build error"
    tests = sorted(set(re.findall(r"^---- (\S+) stdout ----", out, re.M)))
    where = re.findall(r"test failed, to rerun pass `([^`]*)`", err)
    return f"killed: {' '.join(tests) or 'a test binary'} ({' '.join(where)})"


def figures(tree, target, scratch):
    if run(["cargo", "build", "--release", "--offline", "-q", "-p", "ntc-bench"], tree, target)[0]:
        return "build error"
    moved = []
    for src in sorted((tree / "crates/bench/src/bin").glob("*.rs")):
        if src.stem == "fig11_scale":
            continue
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        binary = str(target / "release" / src.stem)
        p = subprocess.run([binary, "--seed", "42"], cwd=scratch, capture_output=True, text=True)
        made = scratch / "results" / f"{src.stem}.json"
        if (p.returncode != 0 or not made.is_file()
                or p.stdout != (tree / f"results/logs/{src.stem}.txt").read_text()
                or made.read_bytes() != (tree / f"results/{src.stem}.json").read_bytes()):
            moved.append(src.stem)
    return f"figure: {' '.join(moved)}" if moved else None


def digests(tree, target):
    found = {}
    for w in WORKLOADS:
        cmd = ["python3", "perfbench/run.py", "--workload", w, "--seed", "42", "--seconds", "1",
               "--trace", "0"]
        found[w] = re.findall(r"^sim_digest \S+ (\S+)$", run(cmd, tree, target)[1], re.M)
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
    for f in filter(None, files):
        if (ROOT / f).is_file():
            (tree / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / f, tree / f)
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
            fate = tier1(tree, target) or figures(tree, target, work / "figs")
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
