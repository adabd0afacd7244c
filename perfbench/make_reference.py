"""Record the reference outputs that the benchmark's checks compare against.

Runs every command any workload seed can produce (``workloads.all_menu_commands``)
once through ``python3 -m hlbounds.cli`` and writes their stdout to
``perfbench/reference.json``.  Run it from the repository root, only at a
commit whose outputs are the accepted reference:

    python3 perfbench/make_reference.py --baseline <commit id>
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import all_menu_commands  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="commit the outputs come from")
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    outputs = {}
    for argv in all_menu_commands():
        proc = subprocess.run([sys.executable, "-m", "hlbounds.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"reference command failed: {' '.join(argv)}\n{proc.stderr}")
        outputs[" ".join(argv)] = proc.stdout
        print(f"recorded {' '.join(argv)}", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"baseline": args.baseline, "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
