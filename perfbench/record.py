"""Write reference.json: the package's output for every input a run can use.

Usage: ``python3 perfbench/record.py``

Run this only at a commit whose detections are the intended reference; the
benchmark then fails any op whose output differs from the record.  Ops are
recomputed in this process (the CLI workload through the same
``auto_detect`` call ``jumpscan detect`` makes), so recording takes a few
minutes rather than the cost of one fresh process per input.
"""

import argparse
import json
import sys
import time

import workloads as wl


def record(spec):
    op = wl.IN_PROCESS[spec.kind]
    out = {}
    for key in spec.keys():
        out[key] = op(spec, wl.make_input(spec, key))
    return out


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.path.insert(0, str(wl.SRC))
    ref = {"tiny": {}, "full": {}}
    for section, specs in (("tiny", wl.TINY), ("full", wl.SPECS)):
        for name, spec in specs.items():
            t0 = time.perf_counter()
            ref[section][name] = record(spec)
            print(f"{section} {name}: {len(spec.keys())} inputs in {time.perf_counter() - t0:.1f} s", flush=True)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
