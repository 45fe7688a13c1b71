"""Core of the reproduction: the SSRmin mutual-inclusion algorithm.

This subpackage implements the paper's primary contribution:

* :mod:`repro.core.state` — local states ``x_i.rts_i.tra_i`` and ring
  configurations (Definition 1's notation).
* :mod:`repro.core.rules` — the guarded-command rule abstraction with the
  strict rule-priority semantics of Algorithm 3.
* :mod:`repro.core.ssrmin` — Algorithm 3 itself (`SSRmin`).
* :mod:`repro.core.tokens` — the primary/secondary token *predicates*
  (the paper stresses tokens are predicates on local variables, not data
  objects).
* :mod:`repro.core.legitimacy` — Definition 1's legitimate configurations,
  both as a closed-form membership test and as the canonical 3nK-step cycle
  from the closure proof (Lemma 1).
* :mod:`repro.core.abstract` — the abstract-action model (alpha_1, beta,
  alpha_2) of section 3.1, used as a cross-validation reference.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.state": ("SSRminState", "Configuration"),
    "repro.core.ssrmin": ("SSRmin",),
    "repro.core.tokens": (
        "holds_primary", "holds_secondary", "token_holders", "primary_holders",
        "secondary_holders",
    ),
    "repro.core.legitimacy": (
        "is_legitimate", "canonical_cycle", "legitimate_configurations",
    ),
})
