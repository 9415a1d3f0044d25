"""Peak resident memory of a fresh process that runs one job.

    python3 benchmarks/peak_rss.py --workload NAME --seed N
    python3 benchmarks/peak_rss.py --import-only

The first form imports tiersim, builds the workload's inputs and runs
one job; the second only imports, so the difference is the workload's
own share. Prints one JSON line with ``peak_rss_mb`` and, for a job, the
SHA-256 of each output, which the parent compares with its own runs.
It imports nothing from run.py, whose modules would add about 1 MiB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys

import source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--import-only", dest="import_only", action="store_true")
    args = parser.parse_args()
    source.add_source_path()
    import workloads

    doc = {}
    if not args.import_only:
        job = workloads.run_job(workloads.make_inputs(args.workload, args.seed))
        doc["sha256"] = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in job.outputs.items()}
    # ru_maxrss is in KiB on Linux
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
