"""Regenerate reference.json: sha256 digests of every workload's outputs at the default seed.

    python3 perfbench/make_reference.py

Run it only when a change to collapsim alters artifact bytes on purpose, and
state that change in CHANGES.md.  The digests depend on the floating-point
summation order of numpy and OpenBLAS, so they belong to the host recorded
next to them.
"""

import json
import shutil
import sys

import workloads
from workloads import DEFAULT_SEED, REFERENCE, WORK, WORKLOADS, CliWorkload

# lattice-superposed run indices with stored digests; later indices in a run
# get the structural checks only.
SUPERPOSED_RUNS = 16


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    from run import host_record

    reference = {"seed": DEFAULT_SEED, "host": host_record()}
    for name, workload in WORKLOADS.items():
        indices = [None] if isinstance(workload, CliWorkload) else range(SUPERPOSED_RUNS)
        for index in indices:
            out = WORK / "reference" / name / str(index)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            if index is None:
                sample = workload.invoke(DEFAULT_SEED, out)
                reference[name] = sample.digests
            else:
                sample = workload.invoke(DEFAULT_SEED, index, out)
                reference.setdefault(name, {})[str(index)] = sample.digests
            if sample.problems:
                print(f"{name}: {'; '.join(sample.problems)}", file=sys.stderr)
                return 1
        print(f"{name}: done", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
