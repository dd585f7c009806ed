"""The verdict engine for the prime-power real-degree classification.

For a non-solvable group whose real irreducible character degrees are all
prime powers, the classification says: Rad(G) = H x O with O of odd order and
H a 2-group all of whose real characters are linear, and either
(i) G = K x Rad(G) with K the derived limit, isomorphic to A5 or L2(8), or
(ii) G = (KH) x O with K = SL2(5) and KH a central product over Z(K) < H.
``classification_verdict`` decides which branch a group lands in (or that the
hypothesis fails, with a witness degree) from the orders of the normal
subgroups that ``structure.analyze`` reads off the character table, and no
other table or group: the 2-core's Chillag-Mann type is a count of its real
classes, from G's classes and the classes of their squares.
``consistency_suite`` checks the real-character facts that always hold.
Both take what the stages before them computed: G's ``ClassData``, its table
and the structure report, never the group, so a report is a function of G's
classes and table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .chartab import ModPTable, real_degree_set
from .perm import ClassData
from .structure import StructureReport, analyze, chillag_mann_subgroup, is_prime_power

SOLVABLE_SKIP = "SolvableSkip"
HYPOTHESIS_FAILS = "HypothesisFails"
CASE_I = "CaseI"
CASE_II = "CaseII"
VIOLATION = "Violation"


def prime_power_set(degs) -> bool:
    return all(is_prime_power(d) for d in degs)


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness_degree: int | None = None
    k_label: str = ""
    h_order: int | None = None
    o_order: int | None = None
    violation_reason: str | None = None


def classification_verdict(cd: ClassData, t: ModPTable, st: StructureReport) -> Verdict:
    """The verdict on the group of classes ``cd``, table ``t`` and structure
    report ``st``.

    Violation is reserved for hypothesis-satisfying non-solvable groups that
    match neither case; on such a group it means a bug or a counterexample.

    No table but G's is read, and no group: H's real irreducibles are all
    linear iff it has |H : H^2| real classes (``chillag_mann_subgroup``,
    which counts them from the squares of H's classes in G), and every
    other check reads the structure report: orders, and whether K meets Rad.
    Each order test is exact:

    - Normal subgroups A and B with A n B = 1 commute, since [a, b] lies in
      A n B.  So a normal W containing both is A x B iff |A||B| = |W|.
      ``analyze`` ensures H n O = 1, so Rad = H x O iff |H||O| = |Rad|, and
      when K n Rad = 1, G = K x Rad iff |K||Rad| = |G|.
    - With the label SL2_5, K = SL(2,5), whose normal subgroups are 1, Z(K)
      and K, so K n Rad > 1 forces K n Rad = Z(K).  Z(K) has order 2 and is
      normal in G, so it lies in O2(G) = H, and K n H = Z(K).  Then
      [K, H] <= Z(K), and by the three-subgroups lemma
      [K, H] = [[K, K], H] = 1, since K is perfect.  So KH is a central
      product over K n H = Z(K), and Z(K) < H iff |H| > 2.
    - KH/H = K/Z(K) = A5 has no nontrivial normal subgroup of odd order, so
      KH n O = 1, and G = KH x O iff 2|G| = |K||H||O|.
    """
    if st.is_solvable:
        return Verdict(kind=SOLVABLE_SKIP)

    rdd = real_degree_set(t)
    if not prime_power_set(rdd.degrees):
        witness = min(d for d in rdd.degrees if not is_prime_power(d))
        return Verdict(kind=HYPOTHESIS_FAILS, witness_degree=witness)

    label, orders = st.k_label, st.lattice.orders
    h, o, rad = orders[st.o2], orders[st.o2p], orders[st.radical]

    def violation(reason: str) -> Verdict:
        return Verdict(kind=VIOLATION, violation_reason=reason)

    if h * o != rad:
        return violation("radical is not the direct product of its 2-core and odd core")
    if not chillag_mann_subgroup(cd, st.lattice, st.o2):
        return violation("2-core of the radical has a nonlinear real character")

    # class 0 is the identity's, so mask 1 is the trivial subgroup
    if st.k & st.radical == 1:
        if label not in ("A5", "L2_8"):
            return violation(f"derived limit recognized as {label}, not A5 or L2(8)")
        if orders[st.k] * rad != t.group_order:
            return violation("derived limit and radical do not form a direct product")
        return Verdict(kind=CASE_I, k_label=label, h_order=h, o_order=o)
    if label != "SL2_5":
        return violation(f"derived limit meets the radical but is {label}, not SL2(5)")
    if h <= 2:
        return violation("KH is not a central product with K n H = Z(K) < H")
    if 2 * t.group_order != orders[st.k] * h * o:
        return violation("orders do not satisfy |G| = |K||H||O| / 2")
    return Verdict(kind=CASE_II, k_label="SL2_5", h_order=h, o_order=o)


def consistency_suite(cd: ClassData, t: ModPTable, st: StructureReport) -> dict[str, bool]:
    """Unconditional real-character facts, checked on the group of classes
    ``cd``, table ``t`` and structure report ``st``.

    L1: every nonlinear real character has odd degree iff a Sylow 2-subgroup
        is normal and all of its real characters are linear.
    L2: if every nonlinear real character has even degree, the group has a
        normal 2-complement.
    L3: every real character of odd degree has the largest normal odd-order
        subgroup in its kernel.
    L4: a non-solvable group has a real character of even degree with
        indicator +1.
    """
    order = t.group_order
    two_part = order & (-order)

    nonlinear_real = [
        (r, d) for r, d in enumerate(t.degrees) if t.real_flags[r] and d > 1
    ]
    all_odd = all(d % 2 == 1 for _, d in nonlinear_real)
    orders = st.lattice.orders
    sylow2_normal_cm = orders[st.o2] == two_part and chillag_mann_subgroup(cd, st.lattice, st.o2)
    l1 = all_odd == sylow2_normal_cm

    all_even = all(d % 2 == 0 for _, d in nonlinear_real)
    l2 = (not all_even) or orders[st.o2p] == order // two_part

    l3 = all(
        st.o2p & ~st.lattice.kernels[r] == 0
        for r, d in enumerate(t.degrees)
        if t.real_flags[r] and d % 2 == 1
    )

    l4 = st.is_solvable or any(
        t.real_flags[r] and t.indicators[r] == 1 and d % 2 == 0
        for r, d in enumerate(t.degrees)
    )
    return {"L1": l1, "L2": l2, "L3": l3, "L4": l4}


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Report:
    """One group's scan line.  The defaults are those of an entry that
    failed before any stage ran: only its name, verdict and error are set."""

    name: str
    verdict: str
    order: int = 0
    classes: int = 0
    prime: int = 0
    cd_rv: tuple[int, ...] = ()
    cd_rv_odd: tuple[int, ...] = ()
    case: str = ""
    witness_degree: int | None = None
    k_label: str = ""
    h_order: int | None = None
    o_order: int | None = None
    lemmas: dict[str, bool] = field(default_factory=dict)
    ms: int = 0
    reason: str | None = None  # why a Violation is one
    error: str | None = None

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "order": self.order,
            "classes": self.classes,
            "prime": self.prime,
            "cd_rv": list(self.cd_rv),
            "cd_rv_odd": list(self.cd_rv_odd),
            "verdict": self.verdict,
            "case": self.case,
            "witness_degree": self.witness_degree,
            "K": self.k_label,
            "H_order": self.h_order,
            "O_order": self.o_order,
            "lemmas": self.lemmas,
            # wall-clock timing is pinned to 0 in machine output so scan
            # results stay byte-identical between runs
            "ms": 0,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.error is not None:
            payload["error"] = self.error
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def build_report(name: str, cd: ClassData, t: ModPTable, lattice_cap: int) -> Report:
    """The scan line of the group named ``name``, of classes ``cd`` and
    table ``t``."""
    rdd = real_degree_set(t)
    st = analyze(cd, t, lattice_cap)
    verdict = classification_verdict(cd, t, st)
    lemmas = consistency_suite(cd, t, st)
    case = {CASE_I: "i", CASE_II: "ii"}.get(verdict.kind, "")
    return Report(
        name=name,
        order=t.group_order,
        classes=cd.k,
        prime=t.ctx.p,
        cd_rv=rdd.degrees,
        cd_rv_odd=rdd.odd,
        verdict=verdict.kind,
        case=case,
        witness_degree=verdict.witness_degree,
        k_label=verdict.k_label,
        h_order=verdict.h_order,
        o_order=verdict.o_order,
        lemmas=lemmas,
        reason=verdict.violation_reason,
    )
