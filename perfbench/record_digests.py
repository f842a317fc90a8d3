"""Record the output digests of every job at the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: per workload, job id -> [input sha256,
canonical-output sha256].  run.py compares a job's output against this
record whenever the job's input digest matches, so a change to any output
at the default seed is reported as a failure.  Jobs whose independent
checks fail are not recorded; the script exits 1 instead.
"""

from __future__ import annotations

import json
import os
import sys

from checks import DIGESTS, check_job, output_digest
from run import SRC, setup
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, run_job


def main():
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    record = {}
    bad = 0
    for workload in sorted(WORKLOADS):
        _, api, jobs = setup(workload, DEFAULT_SEED)
        record[workload] = {}
        for job in jobs:
            code, text = run_job(api, job)
            problems = check_job(api, job, code, text, {})
            if problems:
                bad += 1
                print("%s %s: %s" % (workload, job.id, problems),
                      file=sys.stderr)
                continue
            record[workload][job.id] = [job.input_digest(),
                                        output_digest(text)]
    if bad:
        return 1
    with open(DIGESTS, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
