"""Independent reference implementations used to cross-check production code.

Everything here is deliberately written in the most naive way possible
(explicit loops, no shared helpers from the package under test) so that an
agreement between oracle and production is meaningful.
"""

from __future__ import annotations

import csv
import itertools
import math
import struct


def brute_force_tables(source_count: int):
    """Every {0,1} table with pinned endpoints that is monotone, by scanning
    all 2**(2**S - 2) candidates. Feasible for S <= 4."""
    n = 1 << source_count
    valid = []
    for free_bits in itertools.product((0, 1), repeat=n - 2):
        table = (0,) + free_bits + (1,)
        if _is_monotone(table, n):
            valid.append(table)
    return valid


def _is_monotone(table, n: int) -> bool:
    for a in range(n):
        for b in range(n):
            if a & b == a and table[a] > table[b]:
                return False
    return True


def naive_first_covering_violation(table):
    """The first covering pair (A, A | {i}) with table[A] > table[A | {i}],
    scanning A upward and then i upward; None when there is none."""
    n = len(table)
    for a in range(n):
        for i in range(n.bit_length() - 1):
            b = a | 1 << i
            if b != a and table[a] > table[b]:
                return a, b
    return None


def naive_choquet(h, table) -> float:
    """Sorted-difference aggregation, written independently: explicit sort
    with (value desc, index asc) tie order and a scalar loop."""
    h = list(map(float, h))
    s = len(h)
    order = sorted(range(s), key=lambda i: (-h[i], i))
    total = 0.0
    top = 0
    for k in range(s):
        top |= 1 << order[k]
        h_next = h[order[k + 1]] if k + 1 < s else 0.0
        total += (h[order[k]] - h_next) * float(table[top])
    return total


def naive_objective(table, dataset) -> float:
    """Bag-level min-max objective via plain loops over the data model."""
    total = 0.0
    for bag in dataset.bags:
        per_set = []
        for cset in bag.candidate_sets:
            cis = [naive_choquet(inst, table) for inst in cset.instances]
            per_set.append(cis)
        if bag.label == 0:
            contrib = max(min(cis) for cis in per_set) ** 2
        else:
            contrib = min((max(cis) - 1.0) ** 2 for cis in per_set)
        total += contrib
    return total


def naive_breakdown(table, dataset) -> list[tuple[float, int]]:
    """Per bag: (contribution, first candidate set realizing it), by plain loops."""
    out = []
    for bag in dataset.bags:
        per_set = []
        for cset in bag.candidate_sets:
            cis = [naive_choquet(inst, table) for inst in cset.instances]
            per_set.append(min(cis) ** 2 if bag.label == 0 else (max(cis) - 1.0) ** 2)
        best = max(per_set) if bag.label == 0 else min(per_set)
        out.append((best, per_set.index(best)))
    return out


def pair_count_auc(scores, truth) -> float:
    """Mann-Whitney pair counting: ordered pairs + half credit for ties."""
    scores = list(map(float, scores))
    truth = list(map(int, truth))
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    good = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                good += 1.0
            elif p == q:
                good += 0.5
    return good / (len(pos) * len(neg))


def naive_upward_closure(table) -> list[int]:
    """Upward closure of a {0,1} table by scanning all pairs a ⊆ b: coalition
    b wins when any subset a of it wins."""
    n = len(table)
    out = [0] * n
    for b in range(n):
        for a in range(n):
            if a & b == a and table[a]:
                out[b] = 1
                break
    return out


def naive_set_with_repair(table, c: int, bit: int) -> list[int]:
    """Coalition c of a {0,1} table set to bit, with every superset of c
    when bit is 1 and every subset of c when bit is 0, by scanning all
    coalitions; the rest of the table is left as it is."""
    out = [int(v) for v in table]
    for b in range(len(table)):
        if (bit == 1 and b & c == c) or (bit == 0 and b & c == b):
            out[b] = bit
    return out


def naive_flipped_choquets(h, table) -> list[float]:
    """The Choquet integral of row h under every one-flip neighbour of a
    {0,1} table, coalition 1 to 2**S - 2 in order, in closed form from its
    integral CI under the table: coalition c raised with its supersets gives
    max(CI, min over s in c of h_s), lowered with its subsets min(CI, max
    over s not in c of h_s). CI is read as the largest h_s whose prefix of
    the sources by falling h wins, as the sum of `naive_choquet` would give
    it without rounding, so every value is one of the h_s. The least and
    greatest h_s over each coalition are built up one source at a time:
    coalitions holding source s follow those of the sources below it."""
    h = [float(v) for v in h]
    n = len(table)
    top = 0
    for s in sorted(range(len(h)), key=lambda i: (-h[i], i)):
        top |= 1 << s
        if table[top]:
            ci = h[s]
            break
    least, greatest = [math.inf], [-math.inf]
    for x in h:
        least += [a if a < x else x for a in least]
        greatest += [a if a > x else x for a in greatest]
    return [
        max(ci, least[c]) if table[c] == 0 else min(ci, greatest[n - 1 ^ c])
        for c in range(1, n - 1)
    ]


def naive_neighbourhood(table, dataset) -> list[float]:
    """The objective of every one-flip neighbour of a {0,1} table, coalition
    1 to 2**S - 2 in order, from `naive_flipped_choquets`. Each bag's
    shortfall d is squared as d * d and added to its label's term, bags left
    to right, and the total is the negative term plus the positive one."""
    terms = [[0.0] * (len(table) - 2) for _ in range(2)]
    for bag in dataset.bags:
        pick = min if bag.label == 0 else max
        per_set = [
            [pick(cis) for cis in zip(*(naive_flipped_choquets(h, table) for h in cset.instances))]
            for cset in bag.candidate_sets
        ]
        term = terms[bag.label]
        for k, extremes in enumerate(zip(*per_set)):
            d = max(extremes) - float(bag.label)
            term[k] += d * d
    return [negative + positive for negative, positive in zip(*terms)]


def naive_minimal_winning(table) -> list[int]:
    """Bitmasks of the winning coalitions of which no proper subset wins,
    by scanning all pairs."""
    n = len(table)
    return [
        b for b in range(n)
        if table[b] and not any(a != b and a & b == a and table[a] for a in range(n))
    ]


def naive_ranking(tables, objectives, binary: bool) -> list[int]:
    """Population order by a Python sort: objective, then (binary tables
    only) the number of winning coalitions, then the table's bytes."""
    def key(i):
        table = [float(v) for v in tables[i]]
        if binary:
            return (objectives[i], sum(1 for v in table if v), bytes(int(v) for v in table))
        return (objectives[i], struct.pack(f"<{len(table)}d", *table))

    return sorted(range(len(tables)), key=key)


def naive_real_redraw(table, idx: int, u: float) -> list[float]:
    """Coalition idx of a monotone real table redrawn at fraction u of its
    monotonicity interval: from the largest value of a proper subset to the
    smallest value of a proper superset, by scanning all coalitions."""
    n = len(table)
    lo = max([float(table[a]) for a in range(n) if a != idx and a & idx == a], default=0.0)
    hi = min([float(table[b]) for b in range(n) if b != idx and b & idx == idx], default=1.0)
    out = [float(v) for v in table]
    out[idx] = lo + (hi - lo) * u
    return out


def naive_random_real_table(u) -> list[float]:
    """Random monotone real table from one uniform per coalition: coalitions
    in order of size, each at fraction u of the way from the largest value
    of its proper subsets to 1; the empty set is 0 and the full set 1."""
    n = len(u)
    out = [0.0] * n
    for b in sorted(range(1, n - 1), key=lambda m: (bin(m).count("1"), m)):
        lo = max(out[a] for a in range(n) if a != b and a & b == a)
        out[b] = lo + float(u[b]) * (1.0 - lo)
    out[n - 1] = 1.0
    return out


def naive_fusion_csv(path, dataset, scores) -> None:
    """fusion.csv by walking the bags, one csv.writer row an instance: bag,
    candidate set, instance, the instance's score, then its truth if any."""
    truth = dataset.flat_truth()
    header = ["bag", "candidate_set", "instance", "score"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header if truth is None else header + ["truth"])
        k = 0
        for b, bag in enumerate(dataset.bags):
            for c, cs in enumerate(bag.candidate_sets):
                for i in range(len(cs.instances)):
                    row = [b, c, i, float(scores[k])]
                    w.writerow(row if truth is None else row + [int(truth[k])])
                    k += 1


def naive_roc_csv(path, fpr, tpr) -> None:
    """roc.csv, one csv.writer row a curve point; the header alone when the
    curve is empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["false_positive_rate", "true_positive_rate"])
        for x, y in zip(fpr, tpr):
            w.writerow([float(x), float(y)])
