"""Self-tests of the checkers: each must accept a right answer worked out by
hand and reject the same answer with one value planted wrong.

    python3 perfbench/selftest.py     # exits 1 if a checker lets a wrong answer through

Every benchmark run also calls run() and fails its correctness on a problem.
"""

from __future__ import annotations

import copy
import sys

import checks
from groupcalc import FieldCalc, PermGroup, parse_spec

D8 = PermGroup([(1, 2, 3, 0), (0, 3, 2, 1)], ["a", "b"])  # rotation, reflection i -> -i
GAMMA_D8_H = {"1": 2, "<b>": 1, "<a*b>": 1, "Z": 0, "<b,b*a^2>": 0, "<a*b,a^2>": 0, "<a>": 0, "G": 0}

S3 = PermGroup(*parse_spec("(0 1 2);(0 1)"))
S3_CLASSES = ["1", "<g1>", "<g0>", "G"]
S3_MARKS = [[6, 3, 2, 1], [0, 1, 0, 1], [0, 0, 2, 1], [0, 0, 0, 1]]

V4 = PermGroup(*parse_spec("(0 1);(2 3)"))
V4_MOBIUS = [
    {"from": "1", "to": "1", "mu": 1},
    {"from": "1", "to": "<g0>", "mu": -1},
    {"from": "1", "to": "<g1>", "mu": -1},
    {"from": "1", "to": "<g0*g1>", "mu": -1},
    {"from": "1", "to": "G", "mu": 2},
    {"from": "<g0>", "to": "<g0>", "mu": 1},
    {"from": "<g0>", "to": "G", "mu": -1},
    {"from": "<g1>", "to": "<g1>", "mu": 1},
    {"from": "<g1>", "to": "G", "mu": -1},
    {"from": "<g0*g1>", "to": "<g0*g1>", "mu": 1},
    {"from": "<g0*g1>", "to": "G", "mu": -1},
    {"from": "G", "to": "G", "mu": 1},
]

# F4 = F2[w]/(w^2 + w + 1) with codes c0 + 2 c1: w = 2, w^2 = w + 1 = 3, w^3 = 1.
F4 = FieldCalc(2, (1, 1, 1))
C6_EXPONENTS = {g: g for g in range(6)}
TWIST_BY_W = {0: 1, 1: 2, 2: 3, 3: 1, 4: 2, 5: 3}


def _pair(label, check, right, wrong) -> list:
    out = []
    if check(right):
        out.append(f"self-test {label}: rejects the right answer: {check(right)}")
    if not check(wrong):
        out.append(f"self-test {label}: accepts a planted wrong answer")
    return out


def run() -> list:
    problems = []

    flipped = dict(GAMMA_D8_H, **{"<a*b>": 0})
    problems += _pair(
        "h-mark",
        lambda h: checks.h_mark_problems("gamma-D8", D8, h, checks.gamma_form(2)),
        GAMMA_D8_H, flipped,
    )

    wrong = copy.deepcopy(S3_MARKS)
    wrong[1][2] = 1
    problems += _pair(
        "mark table",
        lambda t: checks.mark_table_problems("S3", S3, S3_CLASSES, t),
        S3_MARKS, wrong,
    )

    wrong = copy.deepcopy(V4_MOBIUS)
    wrong[4]["mu"] = -2
    problems += _pair(
        "Mobius",
        lambda e: checks.mobius_problems("V4", V4, 2, e),
        V4_MOBIUS, wrong,
    )

    wrong = {**TWIST_BY_W, 4: 3}
    problems += _pair(
        "local character",
        lambda a: checks.twist_character_problems("C6", F4, C6_EXPONENTS, a, 1, 2),
        TWIST_BY_W, wrong,
    )
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("self-tests:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
