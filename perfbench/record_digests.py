"""Record the sha256 of every item's stdout into digests.json.

The bytes vwbm prints are its behaviour contract, so the benchmark compares
each item's stdout with the digest recorded here and reports the number of
items that differ as ``cli.stdout_mismatch``.  Re-record only in a change
that alters the output on purpose:

    python3 perfbench/record_digests.py

It runs every item any seed can draw, one at a time, and rewrites the whole
file.  Each line of stdout gives an item and its raw seconds.
"""
from __future__ import annotations

import hashlib
import json

import harness
import workloads


def main() -> int:
    harness.check_checkout()
    digests = {}
    for item in (i for w in workloads.WORKLOADS for i in workloads.domain(w)):
        run = harness.spawn(harness.item_args(item))
        name = workloads.item_key(item)
        if run.exit_code != 0:
            raise SystemExit(f"error: {name} exited {run.exit_code}: "
                             f"{run.stderr.decode(errors='replace')}")
        digests[name] = hashlib.sha256(run.stdout).hexdigest()
        print(f"{name}\t{run.seconds:.3f}", flush=True)
    text = json.dumps(dict(sorted(digests.items())), indent=0)
    workloads.DIGESTS.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
