"""Seeded operation lists for the benchmark workloads.

A workload is an endless sequence of cycles.  Every cycle holds the same
operation shapes (command, network size, index-set sizes, carrier, trials);
the seed and the cycle number choose the weights, index sets, instantiations
and family parameters.

So that an operation's cost does not swing with the seed, every choice is
drawn until its predicted work lies within WORK_SPREAD of the shape's target.
On the half-grid every path from source i has exactly i vertices, so the
work of f(I) or of listing its flows is the flow count times the sum of I:
the number of path vertices visited.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from functools import lru_cache

from oracle import flow_sum, half_grid_vertices, path_matrix

WORKLOADS = ("relation-check", "flow-list", "balance-gadget")
INPUT_DIR = ".perfbench_work"  # input files, relative to the checkout root
WORK_SPREAD = 1.08

# Shapes of one cycle, in the order they run.  A target of None is the median
# work of the shape's own random draws.
RELATION_CHECK = (
    # ("verify", relation, mode, halfgrid size, trials, target)
    ("verify", "family:triple", "numeric", 9, 3, None),
    ("verify", "family:quadruple", "tropical", 9, 3, None),
    ("verify", "family:quintuple", "tropical", 9, 2, None),
    ("verify", "pair", "tropical", 9, 1, None),
    # ("symbolic", relation, halfgrid size, |X|, target)
    ("symbolic", "family:quintuple", 8, 3, None),
    # ("fgf", carrier, halfgrid size, |I|, target)
    ("fgf", "int", 11, 6, 450_000),
    ("fgf", "troprat", 10, 5, 50_000),
    ("fgf", "posrat", 10, 5, 50_000),
)
FLOW_LIST = (
    # ("flows", format, halfgrid size, |I|, |J| or None for flag flows, target)
    ("flows", "text", 12, 6, None, 1_100_000),
    ("flows", "json", 12, 6, None, 1_100_000),
    ("flows", "text", 11, 6, 6, 700_000),
    # ("laurent", n, |A|, target)
    ("laurent", 10, 5, 67_500),
    # ("doubleflow-audit", halfgrid size, |I|, |J|, target flow pairs)
    ("doubleflow-audit", 9, 4, 3, 8_000),
)
BALANCE_GADGET = (
    # (command, pair variant, p, q, target work of the pair, witness gadget vertices)
    ("check-balance", "balanced", 7, 6, 15_000, 29),
    ("check-balance", "dropped", 7, 6, 15_000, 29),
    ("counterexample", "dropped", 7, 6, 15_000, 29),
)
# check-balance scans every member of a pair and builds each of its feasible
# matchings; a member costs about as much as eight of its matchings (a fit to
# timings of is_balanced on pairs at (7, 6)).
MEMBER_WORK = 8
PAIR_SPREAD = 1.02
SHAPES = {"relation-check": RELATION_CHECK, "flow-list": FLOW_LIST, "balance-gadget": BALANCE_GADGET}

# Relative cost of one path vertex's product per carrier, from timings of
# f(I) on the half-grid; only the ratios matter.
CARRIER_COST = {"nat": 1, "int": 1, "posrat": 7, "tropint": 1, "troprat": 5}
SWEEP_CARRIERS = {"numeric": ("nat", "int", "posrat"), "tropical": ("tropint", "troprat")}


def _indices(values) -> str:
    return ",".join(str(x) for x in values)


@lru_cache(maxsize=None)
def _matrix(n: int):
    return path_matrix(n)


@lru_cache(maxsize=None)
def _flow_count(n: int, sources: tuple[int, ...], sinks: tuple[int, ...] | None = None) -> int:
    return int(flow_sum(_matrix(n), sources, sinks))


def _work(n: int, sources, sinks=None) -> int:
    sources = tuple(sorted(sources))
    return _flow_count(n, sources, None if sinks is None else tuple(sorted(sinks))) * sum(sources)


def _choose(rng: random.Random, shape, sample):
    """Draw ``sample(rng) -> (choice, work)`` until the work is within
    WORK_SPREAD of the shape's target; return the choice."""
    target = shape[-1]
    if target is None:
        target = _median_work(shape, sample)
    while True:
        choice, work = sample(rng)
        if target / WORK_SPREAD <= work <= target * WORK_SPREAD:
            return choice


_medians: dict = {}


def _median_work(shape, sample) -> float:
    """Median work of 41 draws from a generator fixed by the shape alone."""
    if shape not in _medians:
        calibration = random.Random(f"calibrate:{shape}")
        _medians[shape] = statistics.median(sample(calibration)[1] for _ in range(41))
    return _medians[shape]


def _subset(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), k)))


def _weights(rng: random.Random, n: int, carrier: str) -> dict[str, str]:
    out = {}
    for v in half_grid_vertices(n):
        if carrier == "int":
            out[v] = str(rng.choice((-3, -2, -1, 1, 2, 3)))
        elif carrier == "posrat":
            out[v] = str(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        else:
            out[v] = str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return out


def _family_instance(rng: random.Random, sqflows, p: int, q: int):
    """One balanced family instance at (p, q): interval-exchange, tail-fixed
    or groebner, with seeded parameters."""
    rel = sqflows.relations
    while True:
        kind = rng.choice(("interval-exchange", "tail-fixed", "groebner"))
        if kind == "interval-exchange":
            base = rel.base_matching(p, q)
            return rel.family_interval_exchange(p, q, rng.sample(base, rng.randint(1, q)))
        if kind == "tail-fixed":
            tail = [x for x in range(p + 2, p + q + 1) if rng.random() < 0.5]
            return rel.family_tail_fixed(p, q, tail)
        b_set = sorted(rng.sample(range(1, p + q + 1), p))
        try:
            return rel.family_groebner(p, q, b_set)
        except rel.RelationError:
            continue  # B comparable with its complement: draw again


def _pair_text(sqflows, p, q, lhs, rhs) -> str:
    mt = sqflows.matchings
    return mt.write_collection_pair(mt.collection(p, q, lhs), mt.collection(p, q, rhs))


def _summands(sqflows, fam, n: int, x_set, y_list):
    """The index-set pairs (I(A), J(A)) of the relation under (X, Y)."""
    rel = sqflows.relations
    inst = rel.Instantiation(n=n, x_set=frozenset(x_set), y_list=tuple(y_list))
    lhs, rhs = rel.instantiate(fam, inst)
    return [(tuple(sorted(i_set)), tuple(sorted(j_set))) for i_set, j_set in lhs + rhs]


def _sweep_work(sqflows, fam, n: int, mode: str, trials: int, seed: int) -> int:
    """Predicted work of ``verify --seed seed``, carrier costs included.  The
    instances are drawn as the command draws them, from
    random.Random(f"{seed}:{carrier}:{trial}")."""
    total = 0
    for carrier in SWEEP_CARRIERS[mode]:
        for trial in range(trials):
            rng = random.Random(f"{seed}:{carrier}:{trial}")
            y = sorted(rng.sample(range(1, n + 1), fam.p + fam.q))
            x = {i for i in range(1, n + 1) if i not in y and rng.random() < 0.5}
            sets = {s for pair in _summands(sqflows, fam, n, x, y) for s in pair}
            total += CARRIER_COST[carrier] * sum(_work(n, s) for s in sets)
    return total


def _verify_op(shape, rng, sqflows, tag):
    _, relation, mode, n, trials, _ = shape
    if relation == "pair":
        def draw(r):
            return _family_instance(r, sqflows, *r.choice(((4, 3), (5, 2))))
    else:
        fixed = getattr(sqflows.relations, relation.replace(":", "_"))()

        def draw(r):
            return fixed

    def sample(r):
        fam, seed = draw(r), r.randrange(10**6)
        return (fam, seed), _sweep_work(sqflows, fam, n, mode, trials, seed)

    fam, seed = _choose(rng, shape, sample)
    op = {"kind": "verify", "mode": mode, "network": f"halfgrid:{n}",
          "checked": trials * len(SWEEP_CARRIERS[mode])}
    if relation == "pair":
        op["pair_text"] = _pair_text(sqflows, fam.p, fam.q, fam.lhs.members, fam.rhs.members)
        relation = f"{INPUT_DIR}/{tag}.pair"
        op["files"] = {relation: op["pair_text"]}
    op["argv"] = ["verify", relation, "--mode", mode, "--network", f"halfgrid:{n}",
                  "--trials", str(trials), "--jobs", "2", "--seed", str(seed)]
    return op


def _symbolic_op(shape, rng, sqflows, tag):
    _, relation, n, x_size, _ = shape
    fam = getattr(sqflows.relations, relation.replace(":", "_"))()

    def sample(r):
        # Multiplying f(I(A)) by f(J(A)) multiplies polynomials with one term
        # per flow, so the work is the sum of the products of the two counts.
        x_set = _subset(r, n, x_size)
        y_list = [i for i in range(1, n + 1) if i not in x_set]
        pairs = _summands(sqflows, fam, n, x_set, y_list)
        return x_set, sum(_flow_count(n, i_set) * _flow_count(n, j_set) for i_set, j_set in pairs)

    x_set = _choose(rng, shape, sample)
    return {"kind": "symbolic", "relation": relation, "n": n, "X": list(x_set)}


def _fgf_op(shape, rng, sqflows, tag):
    _, carrier, n, k, _ = shape
    subset = _choose(rng, shape, lambda r: (lambda s: (s, _work(n, s)))(_subset(r, n, k)))
    weights = _weights(rng, n, carrier)
    while carrier == "int" and not flow_sum(path_matrix(n, {v: int(x) for v, x in weights.items()}), subset):
        weights = _weights(rng, n, carrier)  # signs cancelled: an answer of 0 proves little
    return {"kind": "fgf", "carrier": carrier, "n": n, "I": list(subset), "weights": weights}


def _flows_op(shape, rng, sqflows, tag):
    _, fmt, n, k, j_size, _ = shape

    def sample(r):
        sources = _subset(r, n, k)
        if j_size is None:
            return (sources, None), _work(n, sources)
        sinks = tuple(sorted(r.sample(range(1, sources[-1] + 1), j_size)))
        return (sources, sinks), _work(n, sources, sinks)

    sources, sinks = _choose(rng, shape, sample)
    op = {"kind": "flows", "format": fmt, "n": n, "I": list(sources)}
    argv = ["flows", "--network", f"halfgrid:{n}", "-I", _indices(sources)]
    if sinks is not None:
        op["J"] = list(sinks)
        argv += ["-J", _indices(sinks)]
    op["argv"] = argv + ["--format", fmt]
    return op


def _laurent_op(shape, rng, sqflows, tag):
    _, n, k, _ = shape
    subset = _choose(rng, shape, lambda r: (lambda s: (s, _work(n, s)))(_subset(r, n, k)))
    weights = {v: str(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for v in half_grid_vertices(n)}
    return {"kind": "laurent", "n": n, "A": list(subset), "check_weights": weights,
            "argv": ["laurent", "-n", str(n), "-A", _indices(subset), "--format", "json"]}


def _doubleflow_op(shape, rng, sqflows, tag):
    _, n, ki, kj, _ = shape

    def sample(r):
        i_set, j_set = _subset(r, n, ki), _subset(r, n, kj)
        return (i_set, j_set), _flow_count(n, i_set) * _flow_count(n, j_set)

    i_set, j_set = _choose(rng, shape, sample)
    return {"kind": "doubleflow-audit", "n": n, "I": list(i_set), "J": list(j_set),
            "argv": ["doubleflow-audit", "--network", f"halfgrid:{n}",
                     "-I", _indices(i_set), "-J", _indices(j_set),
                     "--phi", str(rng.randrange(_flow_count(n, i_set))),
                     "--phi-prime", str(rng.randrange(_flow_count(n, j_set)))]}


def _gadget_vertices(sqflows, witnesses, p: int, q: int) -> int:
    """Vertices of the gadget that ``counterexample`` builds when a member
    with feasible matchings ``witnesses`` is dropped from a balanced pair: its
    witness is the first of them in sorted order, augmented to [2p]."""
    witness = min(witnesses, key=lambda m: m.arcs)
    augmented = sqflows.counterexample.augment_matching(witness, p, q).result
    return sum(j - i + 2 for i, j in augmented.arcs)


def _balance_ops(shapes, rng, sqflows, tag):
    """Pairs that are unions of family instances (balanced), and copies with
    one left member dropped (unbalanced); one pair per (p, q, work, gadget).

    A pair grows by whole instances until its work, summed over the members of
    both sides, lies within PAIR_SPREAD of the shape's target; an instance that
    would overshoot is drawn again."""
    feasible = {}

    def matchings_of(member, p, q):
        if (member, p, q) not in feasible:
            feasible[(member, p, q)] = sqflows.matchings.enumerate_feasible_matchings(member, p, q)
        return feasible[(member, p, q)]

    pairs = {}
    ops = []
    for command, variant, p, q, work, gadget in shapes:
        key = (p, q, work, gadget)
        if key not in pairs:
            lhs, rhs, found = [], [], 0
            while found < work / PAIR_SPREAD:
                fam = _family_instance(rng, sqflows, p, q)
                more = sum(MEMBER_WORK + len(matchings_of(m, p, q))
                           for m in fam.lhs.members + fam.rhs.members)
                if found + more <= work * PAIR_SPREAD:
                    lhs += fam.lhs.members
                    rhs += fam.rhs.members
                    found += more
            by_size = {}
            for i, member in enumerate(lhs):
                size = _gadget_vertices(sqflows, matchings_of(member, p, q), p, q)
                by_size.setdefault(size, []).append(i)
            nearest = min(by_size, key=lambda size: (abs(size - gadget), size))
            dropped = list(lhs)
            del dropped[rng.choice(by_size[nearest])]
            pairs[key] = (lhs, rhs, dropped)
        lhs, rhs, dropped = pairs[key]
        left = lhs if variant == "balanced" else dropped
        text = _pair_text(sqflows, p, q, left, rhs)
        name = f"{INPUT_DIR}/{tag}-{p}-{q}-{variant}.pair"
        ops.append({"kind": command, "balanced": variant == "balanced", "pair_text": text,
                    "files": {name: text}, "argv": [command, name],
                    "members": len(left) + len(rhs),
                    "repeated_members": len(left) + len(rhs) - len(set(left + rhs))})
    return ops


MAKERS = {"verify": _verify_op, "symbolic": _symbolic_op, "fgf": _fgf_op,
          "flows": _flows_op, "laurent": _laurent_op, "doubleflow-audit": _doubleflow_op}


def cycle_ops(workload: str, seed: int, cycle: int, sqflows) -> list[dict]:
    """The operations of one cycle; identical for identical arguments."""
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    tag = f"c{cycle}"
    shapes = SHAPES[workload]
    if workload == "balance-gadget":
        ops = _balance_ops(shapes, rng, sqflows, tag)
    else:
        ops = [MAKERS[shape[0]](shape, rng, sqflows, f"{tag}-{i}") for i, shape in enumerate(shapes)]
    for i, op in enumerate(ops):
        op["id"] = f"{tag}.{i}"
        op["shape"] = i
    return ops
