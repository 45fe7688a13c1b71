"""The incremental census against a fresh recount, in both value domains.

A :class:`~repro.kernels.census.Census` is driven through random
single-node changes — states, predecessor caches, successor caches, and
repairs back to coherent or legitimate values — with the packed ints the
DES feeds it and with the native states the live health monitor feeds it.
After every step its holder mask, stale-entry count and legitimacy must
equal those of a census rebuilt from the same lists by ``recount()``.
"""

import random

import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.kernels.census import Census
from repro.messagepassing.cst import legitimate_initial_states

#: Rounds of up to 19 random changes, each followed by a full heal.
ROUNDS = 20


def packed_domain(alg):
    codec = alg.mp_codec()
    census = Census(alg.n, codec.holds_token, codec.is_legitimate,
                    codec.bidirectional)
    start = [codec.pack(s) for s in legitimate_initial_states(alg)]
    return census, start, list(range(codec.packed_bound))


def native_domain(alg):
    n = alg.n
    bidir = alg.ring.bidirectional

    def holds(own, cpred, csucc, i):
        view = [None] * n
        view[(i - 1) % n] = cpred
        if bidir:
            view[(i + 1) % n] = csucc
        view[i] = own
        return bool(alg.node_holds_token(view, i))

    def legit(states):
        return alg.is_legitimate(alg.normalize_configuration(tuple(states)))

    values = list(alg.local_state_space())
    if isinstance(alg, DijkstraKState):
        # A fault value outside the packed domain: the census only
        # compares values, so it must still count correctly.
        values.append(alg.K)
    census = Census(n, holds, legit, bidir)
    return census, legitimate_initial_states(alg), values


def reading(census):
    return (census.mask, census.holders(), census.count(), census.stale,
            census.legitimate())


def recounted(census, make):
    fresh = make()[0]
    fresh.p[:] = census.p
    fresh.cp[:] = census.cp
    fresh.cs[:] = census.cs
    fresh.recount()
    return fresh


@pytest.mark.parametrize("domain", [packed_domain, native_domain])
@pytest.mark.parametrize("alg", [SSRmin(5, 6), DijkstraKState(5, 6)],
                         ids=["ssrmin", "dijkstra"])
def test_single_node_changes_match_recount(alg, domain):
    def make():
        return domain(alg)

    census, start, values = make()
    n, bidir = alg.n, census.bidirectional
    census.p[:] = start
    census.cp[:] = [start[(i - 1) % n] for i in range(n)]
    if bidir:
        census.cs[:] = [start[(i + 1) % n] for i in range(n)]
    census.recount()
    assert census.stale == 0 and census.legitimate()

    rng = random.Random(2021)

    def random_change():
        i = rng.randrange(n)
        kind = rng.choice(
            ("state", "pred", "succ") if bidir else ("state", "pred"))
        return kind, i, rng.choice(values)

    def heal():
        # Back to the legitimate start, one slot at a time.
        for i in range(n):
            yield "state", i, start[i]
        for i in range(n):
            yield "pred", i, start[(i - 1) % n]
            if bidir:
                yield "succ", i, start[(i + 1) % n]

    setters = {"state": census.set_state, "pred": census.set_pred_cache,
               "succ": census.set_succ_cache}
    seen = set()
    for _ in range(ROUNDS):
        changes = [random_change() for _ in range(rng.randrange(1, 20))]
        for kind, i, v in changes + list(heal()):
            setters[kind](i, v)
            got = reading(census)
            assert got == reading(recounted(census, make))
            seen.add((got[3] == 0, got[4], got[2] > 0))
    # The walk visits coherent and incoherent, legitimate and not, holders
    # and vacancies, so every branch of the setters has been compared.
    assert {c for c, _, _ in seen} == {True, False}
    assert {lg for _, lg, _ in seen} == {True, False}
    assert {h for _, _, h in seen} == {True, False}
