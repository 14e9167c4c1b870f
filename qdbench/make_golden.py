"""Write golden.json: the stdout sha256 of every job-pool entry.

Usage: python3 qdbench/make_golden.py

Run it once on the commit whose outputs are the reference.  Each entry is
run untraced in a fresh process and must exit 0.  The benchmark then fails
any job whose stdout differs from the hash recorded here.
"""

import json
import sys

import run


def main() -> int:
    golden = {}
    for name, spec in run.WORKLOADS.items():
        for argv in spec["pool"]:
            job = run.run_job(argv, False, run.JOB_TIMEOUT_S)
            print(f"{name:12s} {job.wall_s:6.2f} s {job.output_bytes:8d} B  "
                  f"{run.job_key(argv)}", flush=True)
            if job.exit_code != 0 or job.error:
                sys.stderr.write(f"failed: {run.job_key(argv)}: {job.error}\n")
                return 1
            golden[run.job_key(argv)] = {"sha256": job.sha256,
                                         "bytes": job.output_bytes}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
