#!/usr/bin/env python3
"""Survey cohomology tables for every fixture that defines a triple.

Prints, per fixture: the cochain space dimensions, the triple cohomology, and
(when a crossed homomorphism is present and valid) the twisted cohomology.
Each table builds and ranks every differential d_n once.

Usage: python scripts/cohomology_survey.py [--max-n N]
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from supercochain import io as sio
from supercochain.crossed import ChComplex, CrossedHom, ch_cohomology_table, check_crossed
from supercochain.triple import LieSupActTriple, triple_cohomology_table, triple_complex

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()

    for path in sorted(FIXTURES.glob("*.json")):
        pf = sio.parse(path)
        if pf.g is None or pf.action is None:
            continue
        t = LieSupActTriple(pf.g, pf.h, pf.action)
        if not t.check().ok:
            print(f"{path.name}: triple axioms fail, skipping")
            continue
        print(f"== {path.name}  (g dims {t.g.space.dims}, h dims {t.h.space.dims})")
        start = time.perf_counter()
        degrees = range(1, args.max_n + 1)
        cx = triple_complex(t)
        for n, row in triple_cohomology_table(t, degrees).items():
            print(f"   triple H^{n}: even {row[0]}  odd {row[1]}   (dim C^{n} = {len(cx.units(n))})")
        if pf.crossed is not None and check_crossed(CrossedHom(t, pf.crossed)).ok:
            D = CrossedHom(t, pf.crossed, True)
            cx = ChComplex(t).twisted(D.as_block())
            for n, row in ch_cohomology_table(D, degrees).items():
                print(f"   crossed H^{n}: even {row[0]}  odd {row[1]}   (dim C^{n} = {len(cx.units(n))})")
        print(f"   ({(time.perf_counter() - start) * 1000:.0f} ms)")


if __name__ == "__main__":
    main()
