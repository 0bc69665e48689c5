#!/usr/bin/env python3
"""Search pulse angles that maximize the collective-uncertainty violation on
a product start state, logging every objective evaluation as JSON lines."""

import argparse
import json
from pathlib import Path

from qlatwit.optimize import PulseParams, optimize_pulse
from qlatwit.spinchain import ChainSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--start", type=float, nargs=3, default=[-3.2, -9.6, 0.8],
                        metavar=("XX", "YY", "Z"))
    parser.add_argument("--budget", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=Path, default=Path("out/pulse_trace.jsonl"))
    args = parser.parse_args()

    chain = ChainSpec(args.n)
    initial = PulseParams(*args.start)
    result = optimize_pulse(chain, initial, budget=args.budget, seed=args.seed)

    args.trace.parent.mkdir(parents=True, exist_ok=True)
    with open(args.trace, "w") as fh:
        for iteration, point, ratio in result.trace:
            fh.write(json.dumps({"iteration": iteration, "params": list(point),
                                 "ratio": ratio}, sort_keys=True) + "\n")

    # the first evaluation is the start point's
    print(f"start   ratio: {result.trace[0][2]:.12f}")
    print(f"start angles: {tuple(args.start)}")
    print(f"best    ratio: {result.ratio:.12f}")
    print(f"best  angles: ({result.params.theta_xx:.6f}, "
          f"{result.params.theta_yy:.6f}, {result.params.theta_z:.6f})")
    print(f"evaluations : {result.evaluations}; trace -> {args.trace}")


if __name__ == "__main__":
    main()
