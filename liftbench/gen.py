"""Seeded generator of benchmark problems with known answers.

Three families, each built so that one layer of the pipeline does most of
the work:

* ``liftable_flat``: flat connection, constant actuation of the base, and a
  fibre drift -grad W for W = 1/2 |x_fib|^2 + small cubic couplings.  The
  lift must return exactly W's coefficients.
* ``coupled_fibres``: fibre drift -x_p + c_p x_{p-1}^2 couples neighbouring
  fibre coordinates, so the antisymmetric condition B fails.  Optionally an
  extra input actuates the last fibre coordinate, which sends the symbol
  search through many coordinate orders.
* ``state_actuated``: like ``liftable_flat`` but the base is actuated by
  (1 + x_j^2) e_j, so no feedback is exact and the closed loop is solved
  pointwise in every RK4 stage.  The exact complement and projection are
  supplied with the problem.

Why the answers hold by construction: the cubic part of W has at most three
terms with |c| <= 1/12 each, so sum |c| <= 1/4.  On the unit ball
W >= 1/2 r^2 - 1/4 r^3 > 0 (definiteness), and on the [-1, 1]^m grid each
partial derivative of the cubic part is at most 3/4 in size, so grad W is
nonzero wherever x_fib is (strict decrease of V* = 1/2 |x_base|^2 + W).

Run as a script to write a workload's instances as problem files that
``liftlyap report --spec`` accepts::

    python3 liftbench/gen.py --workload lift-exact --seed 1 --count 3 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

LIFTABLE = "LIFTABLE_AND_VERIFIED"


@dataclass(frozen=True)
class Instance:
    """A problem spec plus the answer the pipeline must give for it."""

    label: str
    spec: dict
    verdict: str
    exit_code: int
    coefficients: dict[str, str] | None  # lift coefficients, liftable instances only
    reasons: tuple[str, ...]


# -- polynomials as {exponent tuple: Fraction} -------------------------------


def _fmt(terms: dict[tuple[int, ...], Fraction], names: list[str]) -> str:
    pieces = []
    for mi in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = terms[mi]
        if c == 0:
            continue
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mi) if e]
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _diff(terms: dict[tuple[int, ...], Fraction], i: int) -> dict[tuple[int, ...], Fraction]:
    out = {}
    for mi, c in terms.items():
        if mi[i]:
            lowered = list(mi)
            lowered[i] -= 1
            out[tuple(lowered)] = c * mi[i]
    return out


def _unit(m: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(m))


def _small_coeff(rng: random.Random) -> Fraction:
    """A nonzero rational with |c| <= 1/12."""
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(24, 48))


def _seeded_w(rng: random.Random, m: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """W = 1/2 |x_fib|^2 plus up to three small cubic couplings of the fibre."""
    fibre = range(n, m)
    w = {tuple(2 if k == p else 0 for k in range(m)): Fraction(1, 2) for p in fibre}
    cubics = []
    for combo in itertools.combinations_with_replacement(fibre, 3):
        exps = [0] * m
        for p in combo:
            exps[p] += 1
        cubics.append(tuple(exps))
    for mi in rng.sample(cubics, min(3, len(cubics))):
        w[mi] = _small_coeff(rng)
    return w


def _base_spec(label: str, m: int, n: int, r: int) -> dict:
    """Names, trivial quotient y' = v on the base, flat connection, CLF 1/2|y|^2."""
    states = [f"x{i + 1}" for i in range(m)]
    qstates = [f"y{k + 1}" for k in range(n)]
    return {
        "name": label,
        "states": states,
        "inputs": [f"u{j + 1}" for j in range(r)],
        "quotient_states": qstates,
        "quotient_inputs": [f"v{k + 1}" for k in range(n)],
        "g0": ["0"] * n,
        "g": [["1" if q == k else "0" for q in range(n)] for k in range(n)],
        "varphi": ["0"] * n,
        "beta": [["1" if j == k else "0" for j in range(r)] for k in range(n)],
        "gamma": [["0"] * n for _ in range(m - n)],
        "vtilde": " + ".join(f"1/2*{y}^2" for y in qstates),
        "alpha": [f"-{y}" for y in qstates],
    }


def _gradient_drift(w: dict, m: int, n: int, names: list[str]) -> list[str]:
    return ["0"] * n + [_fmt({mi: -c for mi, c in _diff(w, p).items()}, names) for p in range(n, m)]


def _coefficient_map(w: dict) -> dict[str, str]:
    return {str(mi): str(c) for mi, c in sorted(w.items())}


# -- families ------------------------------------------------------------------


def liftable_flat(rng: random.Random, label: str, m: int, n: int, order: int) -> Instance:
    """Constant base actuation; the lift is W and the feedback is exact."""
    spec = _base_spec(label, m, n, n)
    w = _seeded_w(rng, m, n)
    spec["f0"] = _gradient_drift(w, m, n, spec["states"])
    spec["f"] = [["1" if i == j else "0" for i in range(m)] for j in range(n)]
    spec["options"] = {"order": order}
    return Instance(label, spec, LIFTABLE, 0, _coefficient_map(w), ())


def coupled_fibres(rng: random.Random, label: str, m: int, n: int, actuated: bool) -> Instance:
    """Fibre drift -x_p + c_p x_{p-1}^2 violates condition B."""
    r = n + 1 if actuated else n
    spec = _base_spec(label, m, n, r)
    names = spec["states"]
    drift = ["0"] * n + [f"-{names[n]}"]
    for p in range(n + 1, m):
        square = tuple(2 if k == p - 1 else 0 for k in range(m))
        drift.append(_fmt({_unit(m, p): Fraction(-1), square: _small_coeff(rng)}, names))
    spec["f0"] = drift
    columns = list(range(n)) + ([m - 1] if actuated else [])
    spec["f"] = [["1" if i == j else "0" for i in range(m)] for j in columns]
    return Instance(label, spec, "NOT_LIFTABLE(condition_b)", 2, None, ("condition_b",))


def state_actuated(rng: random.Random, label: str, m: int, n: int, order: int, horizon: float) -> Instance:
    """Base actuated by (1 + x_j^2) e_j; the feedback is only pointwise."""
    spec = _base_spec(label, m, n, n)
    names = spec["states"]
    qnames = spec["quotient_states"]
    w = _seeded_w(rng, m, n)
    spec["f0"] = _gradient_drift(w, m, n, names)
    spec["f"] = [[f"1 + {names[j]}^2" if i == j else "0" for i in range(m)] for j in range(n)]
    spec["g"] = [[f"1 + {qnames[k]}^2" if q == k else "0" for q in range(n)] for k in range(n)]
    complement = [["1" if i == p else "0" for i in range(m)] for p in range(n, m)]
    spec["d"] = complement
    spec["p_d"] = complement
    spec["options"] = {"order": order, "horizon": horizon}
    return Instance(label, spec, LIFTABLE, 0, _coefficient_map(w), ())


# -- workloads -----------------------------------------------------------------

# Each workload repeats a fixed pattern of family calls.  Runs cover whole
# patterns, so every run has the same mix of instance shapes; where the
# pattern mixes shapes, the majority shape holds the median.
WORKLOADS = {
    "lift-exact": [lambda rng, label: liftable_flat(rng, label, 5, 2, 5)],
    "obstruct-wide": [
        lambda rng, label: coupled_fibres(rng, label, 7, 3, False),
        lambda rng, label: coupled_fibres(rng, label, 7, 3, False),
        lambda rng, label: coupled_fibres(rng, label, 7, 3, True),
    ],
    "simulate-pointwise": [lambda rng, label: state_actuated(rng, label, 4, 2, 4, 40.0)],
}


def instance(workload: str, seed: int, index: int) -> Instance:
    """The index-th instance of a workload; the same (seed, index) gives the same problem."""
    pattern = WORKLOADS[workload]
    label = f"{workload}/seed={seed}/#{index}"
    return pattern[index % len(pattern)](random.Random(label), label)


def pattern_length(workload: str) -> int:
    return len(WORKLOADS[workload])


# Instances in a run of fixed length: the traced run solves exactly these and
# every timed worker at least these, so the behaviour digest and the traced
# counts repeat for a seed.  Each is whole patterns of 10 to 15 s on a 2-vCPU
# VM.
FIXED_COUNT = {"lift-exact": 10, "obstruct-wide": 6, "simulate-pointwise": 6}


def main() -> None:
    parser = argparse.ArgumentParser(description="Write benchmark instances as liftlyap problem files.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory for the problem files")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        inst = instance(args.workload, args.seed, index)
        path = out / f"{args.workload}-{args.seed}-{index}.json"
        path.write_text(json.dumps(inst.spec, indent=2) + "\n", encoding="utf-8")
        print(f"{path}: expect {inst.verdict}")


if __name__ == "__main__":
    main()
