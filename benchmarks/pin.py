#!/usr/bin/env python3
"""Record the pinned oracle values of every job, full and toy size.

Runs each job once in the pinned basis and prints pinned.json to standard
output.  Only rerun it on a commit whose outputs are independently known
to be right: the pins are what later commits are checked against.

    python3 benchmarks/pin.py > benchmarks/pinned.json
"""

from __future__ import annotations

import json
import sys
import run
import workloads


class Blank(dict):
    """Placeholder pins: every missing key yields another placeholder."""

    def __missing__(self, key):
        return Blank(accepted=[], terminated=False, digest="")


def main():
    sys.path.insert(0, str(run.SRC))
    mods = run.import_package()
    pins = Blank()
    for n in (30, 200):      # the cusp jobs read tau as their input
        pins[f"identity.tau_n{n}"] = {"tau": mods.qseries.ramanujan_tau(n)}
    out = {}
    for workload in workloads.WORKLOADS:
        for toy in (False, True):
            for job in workloads.build(workload, mods, toy=toy, pins=pins):
                if job.name not in out:
                    out[job.name] = job.record(job.run())
                    print(f"pinned {job.name}", file=sys.stderr)
    print("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(out[name], sort_keys=True)}"
                              for name in sorted(out)) + "\n}")


if __name__ == "__main__":
    main()
