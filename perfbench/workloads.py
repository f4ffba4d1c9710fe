"""Benchmark workloads: one scenario each, and the seed that moves its cracks.

Every workload is one scenario on the unit square with the whole boundary as
measurement arc and noise-free data. The sizes keep one run of a scenario
between about one and three seconds, so a measuring budget holds a dozen or
more runs and the medians rest on that many samples. Seed 0 gives the crack
positions the committed references were recorded at. Any other seed shifts
each crack by whole mesh cells, drawn from per-crack shift lists. The shifts
keep every crack inside the interior pixels and, for the upper and locpot
workloads, inside pixels of the same pattern it has at seed 0, so a seed
changes the data and every certificate value but not the number of tests a
run makes. Every combination of shifts has been run once and meets the
invariants that ``verdicts.invariant_failures`` checks.
"""

import copy
import itertools
import random

WORKLOADS = {
    "upper-peel": {
        "scenario": {
            "name": "upper-peel",
            "h": 1.0 / 32,
            "gamma0": 1.0,
            "cracks": [
                {"kind": "insulating", "polyline": [[0.25, 0.8125], [0.5, 0.8125]]},
                {"kind": "conducting", "polyline": [[0.625, 0.8125], [0.875, 0.8125]]},
            ],
            "grid": [8, 8],
            "M": 32,
            "methods": ["upper"],
            "mode": "both",
            "anti_crime": True,
        },
        # a pixel spans 4 cells and both cracks end on pixel edges, so only
        # vertical moves inside their pixel row keep their pixel sets
        "shifts": [
            [(0, dy) for dy in (-1, 0, 1)],
            [(0, dy) for dy in (-1, 0, 1)],
        ],
    },
    "inner-chains": {
        "scenario": {
            "name": "inner-chains",
            "h": 1.0 / 16,
            "gamma0": 1.0,
            "cracks": [
                {"kind": "insulating", "polyline": [[0.25, 0.75], [0.5, 0.75]]},
            ],
            "grid": [8, 8],
            "M": 16,
            "methods": ["inner"],
            "inner_lengths": [2, 4],
            "anti_crime": False,
        },
        # candidates cover all interior pixels whatever the crack position,
        # so any move that keeps the crack in the interior keeps the work
        "shifts": [
            [(dx, dy) for dx in (-2, 0, 3, 6) for dy in (-10, -5, -1, 2)],
        ],
    },
    "locpot-contrast": {
        "scenario": {
            "name": "locpot-contrast",
            "h": 1.0 / 48,
            "gamma0": 0.01,
            "cracks": [
                {"kind": "insulating", "polyline": [[0.25, 0.125], [0.5, 0.125]]},
                {"kind": "conducting", "polyline": [[0.5, 0.875], [0.75, 0.875]]},
            ],
            "grid": [16, 16],
            "M": 48,
            "methods": ["locpot", "chain"],
        },
        # whole-pixel (3-cell) moves along the crack keep the crack regions
        # and their one-ring dilation the same size and unclipped
        "shifts": [
            [(3 * k, 0) for k in range(-1, 6)],
            [(3 * k, 0) for k in range(-5, 2)],
        ],
    },
}

COMMON = {"shape": "rect", "size": [1.0, 1.0], "gamma": "all", "noise": 0.0, "seed": 0}


def crack_shifts(workload, seed):
    """Per-crack (dx, dy) shifts in mesh cells; all zero for seed 0."""
    options = WORKLOADS[workload]["shifts"]
    zero = tuple((0, 0) for _ in options)
    if seed == 0:
        return zero
    combos = [c for c in itertools.product(*options) if c != zero]
    return random.Random(seed).choice(combos)


def scenario_dict(workload, seed):
    """The scenario mapping ``harness.scenario_from_dict`` takes for a seed."""
    spec = copy.deepcopy(WORKLOADS[workload]["scenario"])
    h = spec["h"]
    for crack, (dx, dy) in zip(spec["cracks"], crack_shifts(workload, seed)):
        if dx or dy:
            crack["polyline"] = [[x + dx * h, y + dy * h] for x, y in crack["polyline"]]
    return dict(COMMON, **spec)
