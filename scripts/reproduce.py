#!/usr/bin/env python3
"""Regenerate the headline experiments.

Runs the three-protocol comparison over 30 paired seeds at the default
configuration, then sweeps each heterogeneity parameter around the defaults.
Everything goes through the command line interface, so each output directory
carries its own echoed config and can be reproduced standalone.

Give a fresh --out each time: every command refuses an output directory that
already holds files, so a second run into the same --out stops with exit
code 2 at its first command and changes nothing.

Roughly 10 minutes on one core for the full set; pass --quick for a small
smoke version.
"""

import argparse
import sys

from wsnsim.cli import main as wsnsim_main

SWEEPS = [
    ("m", "0.1,0.2,0.3,0.4"),
    ("m0", "0.0,0.05,0.1,0.15"),
    ("a", "0.5,1,2,3"),
    ("b", "2,3,4,5"),
]


def call(args):
    print("+ wsnsim " + " ".join(args))
    code = wsnsim_main(args)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="root output directory")
    parser.add_argument("--seeds", default="1..30", help="seed range a..b")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="3 seeds, 2000 rounds: smoke test only")
    args = parser.parse_args()

    seeds = "1..3" if args.quick else args.seeds
    extra = ["--max-rounds", "2000"] if args.quick else []
    if args.workers is not None:
        extra += ["--workers", str(args.workers)]

    call(["compare", "--out", f"{args.out}/compare_default",
          "--seeds", seeds] + extra)
    for param, values in SWEEPS:
        call(["sweep", "--param", param, "--values", values,
              "--out", f"{args.out}/sweep_{param}", "--seeds", seeds] + extra)
    print(f"done; results under {args.out}/")


if __name__ == "__main__":
    main()
