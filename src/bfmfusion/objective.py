"""Bag-level min-max training objective over a candidate measure.

Each negative bag contributes the worst candidate set's best-case fused
confidence, squared: max over its candidate sets of (min over instances of
CI)^2. Each positive bag contributes its best candidate set's shortfall
from full confidence: min over its candidate sets of (max over instances
of CI - 1)^2. The total is the plain sum over bags. Zero total means every
negative candidate set can be explained by a fully suppressed matching and
every positive bag has a matching fused to exactly 1.

`prepare` factors out everything measure-independent (the bags in blocks
of about 2048 candidate sets, each block built whole: its candidate sets by
size, one record a group with their rows and threshold walks, and its bags
by set count) so that evaluating many value tables against one dataset, as
the optimizer does, costs one pass for all of them. It sorts the rows once
with `choquet._source_order`, keeps each row's source order as one byte a
source, and builds the walks from it; a real-valued stack reads its levels
and prefixes from the same order with `choquet._decompose`, as fusion does,
a block of candidate sets at a time, so no second sorted form is held.
`objective` and the optimizer share one evaluator, `_evaluate`, which
takes the tables as a column stack in the optimizer's population layout:
binary tables as a bitset stack, 8 coalitions a byte in np.packbits order
(coalition c at byte c >> 3, bit 7 - (c & 7); see `measures._pack`), real
ones as a (2**S, P) float64 stack. It reads the set extremes of one block
of bags at a time, reduces them to those bags' contributions and folds
these into the running negative and positive terms, so its memory follows
one block of bags and never holds an (n_bags, P) array. The fold adds
each table's bags left to right in a stack of any width, so a table scores
the same bits alone and among others; `objective` has each bag's
contribution and selected set written out in the same pass.

A binary table never needs CI itself, only each candidate set's extreme.
Under a binary measure g a row's CI is its level at its first winning
prefix. As the prefixes grow and the levels fall, that is both the
highest level of an (instance, prefix) pair whose prefix wins and the
lowest level of a pair whose prefix above it, the sources before it,
loses. A positive set's maximum CI is thus the highest level of any of
its winning pairs: walk its pairs by falling level and stop at the first
that wins. A negative set's minimum CI is the lowest level of any pair
whose prefix above loses, that is, whose complement, the row's sources
from that pair on, wins under the dual measure 1 - g(complement)
(max-min/min-max duality): walk by rising level and stop at the first
pair whose dual wins. Both stops read a level, an exact copy of a
confidence, so the extremes keep their bits. A real-valued stack gets
CI from `choquet._choquet` by the level-difference sum.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .choquet import _BLOCK, _blocks, _choquet, _decompose, _prefix_masks, _source_order
from .data import Dataset, _bag_blocks
from .measures import BinaryFuzzyMeasure, Measure, _check_measure, _coalition_bits, _pack


@dataclass(frozen=True)
class ObjectiveBreakdown:
    total: float
    negative_term: float
    positive_term: float
    contributions: tuple[float, ...]  # per bag, in bag order
    selected_sets: tuple[int, ...]    # per bag, the first set to reach its extreme

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "negative_term": self.negative_term,
            "positive_term": self.positive_term,
            "per_bag": [
                {"bag_index": b, "contribution": c, "selected_set": sel}
                for b, (c, sel) in enumerate(zip(self.contributions, self.selected_sets))
            ],
        }


@dataclass(frozen=True)
class PreparedData:
    """Measure-independent compilation of a dataset for repeated evaluation."""

    source_count: int
    instances: np.ndarray    # (N, S) the dataset's own confidence matrix, not a copy
    order: np.ndarray        # (N, S) uint8 each row's sources by falling confidence,
                             # ties by ascending source
    coalitions: tuple        # byte rows and bit masks (see measures._coalition_bits) of
                             # the U coalitions the walks read
    blocks: tuple            # the bags in blocks of about _BLOCK_SETS candidate
                             # sets, in order, each with its sets' walks, see _Block
    set_signs: np.ndarray    # (n_sets, 1) the sign of each candidate set's bag
    labels: np.ndarray       # per bag, 0 or 1


# candidate sets in a block of bags: their extremes under 64 tables are
# 1 MiB, 4 * _BLOCK float64 values, and the block's bags, no more than its
# sets, fold into the terms through a buffer of at most that size, so what
# a call holds follows this size and not the number of bags
_BLOCK_SETS = 4 * _BLOCK // 64


class _Block(NamedTuple):
    """Whole bags that `_evaluate` reduces together."""

    bags: slice         # the bags
    sets: slice         # their candidate sets
    set_groups: tuple   # one record a size group of those sets, see _walks:
                        # set indices are positions in the block, rows the
                        # dataset's instance rows
    bag_groups: tuple   # the bags by candidate-set count, see _size_groups:
                        # bag indices and rows of sets, both positions in the
                        # block


def _size_groups(offsets: np.ndarray) -> tuple:
    """Segments grouped by the power of two G at or above their size: for
    each G present, the segment indices and a (n_g, G) array of the rows
    each of them covers, its last row repeated up to G, which moves no
    max or min."""
    sizes = np.diff(offsets)
    exps = np.frexp(sizes - 1)[1]  # the bit length of size - 1, so 2**exps >= size
    return tuple(
        (segs, offsets[segs][:, None] + np.minimum(np.arange(1 << e), sizes[segs][:, None] - 1))
        for e in np.flatnonzero(np.bincount(exps))
        for segs in [np.flatnonzero(exps == e)]
    )


def _walks(
    set_offsets: np.ndarray, X: np.ndarray, order: np.ndarray, rank: np.ndarray,
    set_signs: np.ndarray, u: int,
) -> tuple:
    """One record (segs, rows, walk, levels) a size group of candidate sets:
    the set indices and (n_g, G) rows of `_size_groups`, the (G * S, n_g)
    word indices of each set's (instance, prefix) pairs by ascending key,
    one set per column, uint16 while the 2U words fit and int32 beyond,
    and the (n_g, G * S) levels |key| in that order.

    Built a block of sets at a time from each row's sources by falling
    confidence, `order`, and each coalition's word, `rank`. A positive set's
    walk tests g at its rows' prefixes by falling level, its key the negated
    level. A negative set's tests the dual by rising level, at the
    complement of the prefix above the pair, the sources before it: word
    u + i is the complement of word i, and the first pair's prefix above is
    the empty set, word 0.
    """
    flat = X.ravel()
    # np.take reads uint16 indices as fast as int32 ones
    dtype = np.uint16 if 2 * u <= 1 << 16 else np.int32
    out = []
    for segs, rows in _size_groups(set_offsets):
        width = rows.shape[1] * X.shape[1]
        walk = np.empty((width, len(segs)), dtype)
        levels = np.empty((len(segs), width))
        for b in _blocks(len(segs), width):
            block = rows[b]
            sign = set_signs[segs[b], None, None]
            # rebound, so that the masks and levels are freed before the sort
            word, key = _decompose(flat, block, order[block])
            word = rank[word]
            key = key[..., :-1] * -sign
            above = np.empty_like(word)
            above[..., 0] = u
            np.add(word[..., :-1], u, out=above[..., 1:])
            word = np.where(sign < 0, above, word).reshape(len(block), width)
            key = key.reshape(len(block), width)
            # ties may fall in any order: a tied pair has the same level
            by_key = np.argsort(key, axis=1)
            # a flat index is faster here than take_along_axis
            by_key += np.arange(0, key.size, width)[:, None]
            walk[:, b] = word.ravel()[by_key].T
            np.abs(key.ravel()[by_key], out=levels[b])
        out.append((segs, rows, walk, levels))
    return tuple(out)


def prepare(data: Dataset) -> PreparedData:
    """Compile a dataset for evaluation. Rows are sorted in blocks and their
    order kept as one byte a source (`choquet._source_order`), then each
    block of bags is built whole: its sets' walks, a few sets at a time, and
    its bags by set count; no (N, S) mask or level array is formed."""
    X = data.instance_matrix()
    s = X.shape[1]
    labels = data.labels()
    set_signs = np.repeat(np.where(labels == 0, -1.0, 1.0), np.diff(data.bag_offsets))
    order = _source_order(X)
    # only the coalitions some walk tests are packed, so evaluation scales
    # with the data and not with 2**S: the prefixes and the empty set
    present = np.zeros(1 << s, bool)
    present[0] = True
    for rows in _blocks(len(X), s):
        present[_prefix_masks(order[rows], np.int32)] = True
    coalitions = _coalition_bits(np.flatnonzero(present))
    # the cumsum runs in place, so the 2**S transient is one int32 array
    rank = present.astype(np.int32)
    np.cumsum(rank, out=rank)
    rank -= 1
    offsets, blocks = data.bag_offsets, []
    for bags in _bag_blocks(offsets, _BLOCK_SETS):
        sets = slice(offsets[bags.start], offsets[bags.stop])
        set_offsets = data.set_offsets[sets.start : sets.stop + 1]
        blocks.append(_Block(
            bags, sets,
            _walks(set_offsets, X, order, rank, set_signs[sets], len(coalitions[0])),
            _size_groups(offsets[bags.start : bags.stop + 1] - sets.start),
        ))
    return PreparedData(
        source_count=data.source_count,
        instances=X,
        order=order,
        coalitions=coalitions,
        blocks=tuple(blocks),
        set_signs=set_signs[:, None],
        labels=labels,
    )


def _prepared(data: Union[Dataset, PreparedData]) -> PreparedData:
    """`data` if it is already prepared, else `prepare(data)`."""
    return data if isinstance(data, PreparedData) else prepare(data)


class _Evaluation(NamedTuple):
    """Objective parts for a stack of P value tables."""

    negative: np.ndarray  # (P,) negative-bag term
    positive: np.ndarray  # (P,) positive-bag term

    @property
    def total(self) -> np.ndarray:
        return self.negative + self.positive


def _block_buffers(prepared: PreparedData, p: int) -> Iterator[tuple]:
    """Each block with an (n_sets_block, P) float64 view of one buffer, so a
    block's extremes are written over the last block's."""
    buffer = np.empty((max(b.sets.stop - b.sets.start for b in prepared.blocks), p))
    for block in prepared.blocks:
        yield block, buffer[: block.sets.stop - block.sets.start]


def _walk_extremes(tables: np.ndarray, prepared: PreparedData) -> Iterator[tuple]:
    """Each block and its (n_sets_block, P) set extremes under a bitset
    stack of binary tables.

    The coalitions the walks read are gathered as byte rows, masked to
    their bits and packed 64 columns to a word, and word U + i
    is the complement of word i. OR-accumulated along a set's walk, the
    words of its pairs set column c's bit from c's first hit j on; the
    complement is 1 at exactly the first j positions, so bit b of j is the
    parity of its 1s at positions m * 2**b - 1, one XOR reduction per bit.
    `np.unpackbits` turns each bit of such a plane into one byte, the byte
    of its column in a word, so j is built 8 columns at a time, and the
    extreme is the walk's level at j. Every walk has a hit because valid
    tables have g(empty) = 0 and g(full) = 1.
    """
    p = tables.shape[1]
    n_words = -(-p // 64)
    # one packbits of a copy padded to whole words: packing each short row
    # is slower. packbits packs any nonzero byte as 1, so each coalition's
    # byte masked to its bit is enough
    row, bit = prepared.coalitions
    columns = np.zeros((len(row), 64 * n_words), np.uint8)
    np.bitwise_and(tables[row], bit[:, None], out=columns[:, :p])
    packed = np.packbits(columns).view(np.uint64).reshape(len(row), n_words)
    # one row per word of columns, so each gather below is a 1-D take
    doubled = np.ascontiguousarray(np.concatenate([packed, ~packed]).T)
    shifts = np.arange(8, dtype=np.uint64)[:, None, None]
    for block, out in _block_buffers(prepared, p):
        for segs, _, walk, levels in block.set_groups:
            length = walk.shape[0]
            bits = max(1, (length - 1).bit_length())
            for sets in _blocks(len(segs), max(length * n_words, p)):
                steps = walk[:, sets]
                n = steps.shape[1]
                # hit[w, t, k]: word w of the tables at pair t of set k, then
                # OR-accumulated along the walk and complemented, so that each
                # step of both runs over whole rows of sets
                hit = np.empty((n_words, length, n), np.uint64)
                for w in range(n_words):
                    np.take(doubled[w], steps, out=hit[w])
                np.bitwise_or.accumulate(hit, axis=1, out=hit)
                np.invert(hit, out=hit)
                planes = np.empty((bits, n, n_words), np.uint64)
                for b in range(bits):
                    np.bitwise_xor.reduce(
                        hit[:, (1 << b) - 1 :: 1 << b], axis=1, out=planes[b].T
                    )
                # flat index of each walk's level at j, 8 bits of j at a time
                at = np.arange(sets.start * length, (sets.start + n) * length, length)[:, None]
                for low in range(0, bits, 8):
                    spread = np.unpackbits(planes[low : low + 8].view(np.uint8), axis=-1)
                    spread = spread.view(np.uint64)
                    spread <<= shifts[: len(spread)]
                    j = np.bitwise_or.reduce(spread, axis=0).view(np.uint8)[:, :p]
                    at = at + (np.left_shift(j, low, dtype=np.intp) if low else j)
                out[segs[sets]] = levels.ravel()[at]
        yield block, out


def _real_extremes(tables: np.ndarray, prepared: PreparedData) -> Iterator[tuple]:
    """Each block and its (n_sets_block, P) set extremes under a float64
    stack. For a few candidate sets at a time, as in `_walks`, each row is
    decomposed from the prepared `order`, its levels negated in a negative
    set, and `_choquet` reads their CI; each set's maximum is taken at once, so no (N, P) array is
    formed. Negating a level is exact, so that maximum is the negated
    minimum of a negative set bit for bit, and the set's sign flips it
    back."""
    s = prepared.source_count
    flat = prepared.instances.ravel()
    p = tables.shape[1]
    for block, out in _block_buffers(prepared, p):
        signs = prepared.set_signs[block.sets]
        for segs, rows, _, _ in block.set_groups:
            size = rows.shape[1]
            # 8 * _BLOCK elements, 2 MiB, of (S, rows, P) product a block: smaller
            # blocks pay more per block than they save in cache on small data
            for b in _blocks(len(segs), size * p * s, 8 * _BLOCK):
                chunk = rows[b]
                masks, levels = _decompose(flat, chunk, prepared.order[chunk])
                levels *= signs[segs[b], :, None]
                ci = _choquet(tables, masks.reshape(-1, s), levels.reshape(-1, s + 1))
                out[segs[b]] = ci.reshape(-1, size, p).max(axis=1)
        out *= signs
        yield block, out


def _set_extremes(tables: np.ndarray, prepared: PreparedData) -> Iterator[tuple]:
    """Each block of bags in turn and its (n_sets_block, P) set extremes,
    written over the last block's: the min CI of a negative set, the max CI
    of a positive one. A uint8 stack is a bitset stack of binary tables (see
    `measures._pack`), read off each candidate set's walk (see the module
    docstring and `_walk_extremes`); a float64 stack gets CI by the
    level-difference sum (`_real_extremes`)."""
    if tables.dtype == np.uint8:
        return _walk_extremes(tables, prepared)
    return _real_extremes(tables, prepared)


def _evaluate(
    tables: np.ndarray, prepared: PreparedData,
    contributions: np.ndarray | None = None, selected: np.ndarray | None = None,
) -> _Evaluation:
    """Evaluate a column stack of P value tables (see `_set_extremes`).

    In one pass, a block of bags at a time, each bag is reduced to the
    largest of its set extremes, so no (n_sets, P) array is formed. A
    negative bag contributes the square of its largest set minimum; a
    positive bag contributes (its largest set maximum - 1)^2, which is the
    smallest shortfall because (x - 1)^2 falls on [0, 1]. Each block's
    contributions are folded into the running terms, so no (n_bags, P)
    array is formed either, and each table's terms add its bags left to
    right, whatever P. Given an (n_bags, P) `contributions`, it also
    writes each bag's contribution there, and given an (n_bags,)
    `selected`, each bag's first set to reach its extreme under the first
    table.
    """
    p = tables.shape[1]
    negative = prepared.labels == 0
    # row 0 holds a running term above a block's bags, and a masked reduction
    # adds the rows in order, each table's bags left to right; it would add a
    # lone column's runs of bags pairwise, so one table gets a spare column, 0
    terms = np.zeros((2, max(p, 2)))
    buffer = np.zeros((max(b.bags.stop - b.bags.start for b in prepared.blocks) + 1, len(terms[0])))
    where = np.ones((len(buffer), 1), bool)
    for block, extremes in _set_extremes(tables, prepared):
        n = block.bags.stop - block.bags.start
        bags = buffer[1 : n + 1, :p]
        for segs, rows in block.bag_groups:
            for b in _blocks(len(segs), rows.shape[1] * p):
                bags[segs[b]] = np.maximum.reduce(extremes[rows[b]], axis=1)
                if selected is not None:
                    # argmax takes the first maximum, and a bag's padding
                    # repeats its last set only after it. A gather of its own
                    # frees the reduce's at once: held to the next chunk, it
                    # took `search`'s glibc heap from 6k to 28k page faults
                    at = block.bags.start + segs[b]
                    selected[at] = np.argmax(extremes[rows[b], 0], axis=1)
        # x - 0 is x, so a negative bag's contribution is its extreme squared
        bags -= prepared.labels[block.bags, None]
        np.square(bags, out=bags)
        if contributions is not None:
            contributions[block.bags] = bags
        for term, mask in zip(terms, (negative, ~negative)):
            buffer[0] = term
            where[1 : n + 1, 0] = mask[block.bags]
            np.add.reduce(buffer[: n + 1], axis=0, where=where[: n + 1], out=term)
    return _Evaluation(*terms[:, :p])


def objective(measure: Measure, data: Union[Dataset, PreparedData]) -> ObjectiveBreakdown:
    """Evaluate the objective with a per-bag breakdown for diagnostics."""
    prepared = _prepared(data)
    _check_measure(measure, prepared.source_count)
    tables = measure.values[:, None]
    if isinstance(measure, BinaryFuzzyMeasure):
        tables = _pack(tables)
    contributions = np.empty((len(prepared.labels), 1))
    selected = np.empty(len(prepared.labels), np.intp)
    ev = _evaluate(tables, prepared, contributions, selected)
    neg, pos = float(ev.negative[0]), float(ev.positive[0])
    return ObjectiveBreakdown(
        total=neg + pos, negative_term=neg, positive_term=pos,
        contributions=tuple(contributions[:, 0].tolist()),
        selected_sets=tuple(selected.tolist()),
    )
