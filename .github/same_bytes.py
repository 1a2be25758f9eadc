"""Check that a change keeps the bytes of its parent commit.

    python3 .github/same_bytes.py collect TREE OUT.json
    python3 .github/same_bytes.py compare PARENT.json CHANGE.json .github/bytes-changed.txt

``collect`` runs one reference round of each perfbench workload in the source
tree TREE, at the default seed and the hold-out seed, and each demo, and
writes what must not move: every command digest, the failure list and the
input digest of each run, and each demo's exit code and stdout.

``compare`` prints every difference between two collections and exits 1 if
one is not allowed, or if an allowed key did not move.  A change that means
to move bytes lists the keys it moves in the allowed file, one a line:
``workload/command`` (for example ``pairs/classify``) for a perfbench
command's digest and failures, ``workload/input`` for a workload's input
digest, or ``demos/<file>`` for a demo's output.  The allowance ends with
the change that used it: the next change empties the file, since a listed
key that keeps its bytes fails the compare.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("batch", "pairs", "pairs-stress", "orbit")
SEEDS = (1, 20090)


def collect(tree, out):
    result = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0"],
                cwd=tree, check=True, stdout=subprocess.DEVNULL,
            )
            with open(os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            run = f"seed {seed}"
            result.setdefault(f"{workload}/input", {})[run] = report["setup"]["input_digest"]
            for command, digest in report["digests"].items():
                entry = result.setdefault(f"{workload}/{command}", {})
                entry[run] = {"digest": digest,
                              "failures": [f for f in report["failures"] if f["argv"][0] == command]}
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for demo in sorted(os.listdir(os.path.join(tree, "demos"))):
        if demo.endswith(".py"):
            done = subprocess.run([sys.executable, os.path.join("demos", demo)], cwd=tree, env=env,
                                  capture_output=True, text=True)
            result[f"demos/{demo}"] = {"exit": done.returncode, "stdout": done.stdout}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def compare(parent_path, change_path, allowed_path):
    with open(parent_path, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(change_path, encoding="utf-8") as fh:
        change = json.load(fh)
    with open(allowed_path, encoding="utf-8") as fh:
        allowed = {line.strip() for line in fh if line.strip()}
    moved = sorted(key for key in parent.keys() | change.keys() if parent.get(key) != change.get(key))
    refused = [key for key in moved if key not in allowed]
    stale = sorted(allowed.difference(moved))
    for key in moved:
        print(f"{'allowed' if key in allowed else 'MOVED'}: {key}")
    for key in stale:
        print(f"STALE: {key} is listed but did not move")
    print(f"{len(parent)} parent keys, {len(change)} change keys, {len(moved)} moved, "
          f"{len(refused)} not listed in {allowed_path}, {len(stale)} listed and unmoved")
    return 1 if refused or stale else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["collect"] and len(sys.argv) == 4:
        collect(*sys.argv[2:])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 5:
        sys.exit(compare(*sys.argv[2:]))
    else:
        sys.exit(__doc__)
