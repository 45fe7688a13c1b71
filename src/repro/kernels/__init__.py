"""The shared packed-kernel layer.

Every packed execution backend in the repo — the shared-memory simulator
fastpath (and through it the explicit-state model checker), the
message-passing DES codec, and the batched numpy engine — used to carry
its own copy of three things: the SSRmin guard-resolution table, the
``(x << 2) | (rts << 1) | tra`` word codec, and Dijkstra's successor
arithmetic ``C_i``.  This package is the single home for all three, so a
new backend (or a new algorithm in PR 11+) lands its semantics once:

* :mod:`repro.kernels.rule_table` — the 128-entry RULE_TABLE and rule
  name registries;
* :mod:`repro.kernels.packing` — pack/unpack, word bounds, and the
  full-pass packed-word legitimacy predicate;
* :mod:`repro.kernels.successor` — ``next_x`` (the one copy of ``C_i``)
  and the packed-word rule executors;
* :mod:`repro.kernels.batched` — the one batched engine: vectorized
  numpy expressions over ``(trials, n)`` state arrays and the lockstep
  step loop behind the convergence-cell runner and the configuration
  stepper;
* :mod:`repro.kernels.prng` — counter-based (splitmix64) randomness that
  makes batched trajectories a pure function of per-cell seeds;
* :mod:`repro.kernels.census` — the incremental own-view token census
  (holder mask, stale-entry count, memoised legitimacy) that the packed
  DES and the live health monitor share.

Scalar consumers import the scalar modules only; numpy is required just
for :mod:`~repro.kernels.batched` / :mod:`~repro.kernels.prng`.
"""

from repro.kernels.packing import (
    pack_ssrmin,
    ssrmin_decode_table,
    ssrmin_h,
    ssrmin_word_bound,
    ssrmin_words_legitimate,
    ssrmin_x,
    unpack_ssrmin,
)
from repro.kernels.rule_table import (
    DIJKSTRA_RULE_NAMES,
    RULE_TABLE,
    SSRMIN_RULE_NAMES,
    build_rule_table,
    rule_index,
)
from repro.kernels.successor import (
    execute_dijkstra_word,
    execute_ssrmin_word,
    next_x,
)

__all__ = [
    "DIJKSTRA_RULE_NAMES",
    "RULE_TABLE",
    "SSRMIN_RULE_NAMES",
    "build_rule_table",
    "execute_dijkstra_word",
    "execute_ssrmin_word",
    "next_x",
    "pack_ssrmin",
    "rule_index",
    "ssrmin_decode_table",
    "ssrmin_h",
    "ssrmin_word_bound",
    "ssrmin_words_legitimate",
    "ssrmin_x",
    "unpack_ssrmin",
]
