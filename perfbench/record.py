"""Record the expected answers the benchmark checks against.

    python3 perfbench/record.py

Runs every recorded `witness` case and the default-seed (0) `membership`
stream once, and rewrites perfbench/expected/witness.json and
perfbench/expected/membership.json.  Run it only at a commit whose outputs
are trusted: the benchmark treats these files as the truth.
"""

import json
import os
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    try:
        cases = workloads.WITNESS_CASES
        groups = [[{"id": f"w{i}", "argv": [c[0], workloads.poly_path(c[1]), *c[2:]], "inputs": []}]
                  for i, c in enumerate(cases)]
        p = run.run_pass(groups, workdir, deadline=time.monotonic() + 600)
        witness = workloads.witness_record({workloads.case_key(c): p.results[f"w{i}"] for i, c in enumerate(cases)})

        groups = workloads.membership_groups(0, workdir)
        p = run.run_pass(groups, workdir, deadline=time.monotonic() + 600)
        counts, verdicts = {}, {}
        for job in (j for g in groups for j in g):
            report = workloads.parse_report(p.results[job["id"]]["out"])
            if p.results[job["id"]]["exit"] != 0 or report.get("member") not in ("true", "false"):
                sys.stderr.write(f"record: {job['argv']} failed: {p.results[job['id']]}\n")
                return 1
            counts.setdefault(job["module"], report["generator_count"])
            verdicts[job["id"]] = report["member"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, data in (("witness.json", witness),
                       ("membership.json", {"generator_count": counts, "seed0_verdicts": verdicts})):
        with open(os.path.join(workloads.EXPECTED_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
