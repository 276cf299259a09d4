"""The paper's checkout-cost rules, defined once as pure functions.

Section 5.4's drift rule for a partitioned CVD: the live average
checkout cost C_avg is within tolerance while C_avg ≤ µ·C*_avg, where
C*_avg is the cost of the partitioning LyreSplit would choose now. The
migration engine, the doctor, the advisor and the online storage
planner all judge drift with :func:`within_tolerance`.

Theorem 5.2 gives LyreSplit a ((1+δ)^ℓ, 1/δ) guarantee: storage
S ≤ (1+δ)^ℓ·|R| and C_avg < (1/δ)·|E|/|V|. Theorem 5.3 extends the
storage bound to a DAG by counting the records its tree reduction
duplicates, |R| + |R̂|, in place of |R|.

Nothing here reads or writes state: checking a rule changes nothing.
"""

#: µ, the migration tolerance factor.
MU = 1.5

#: Float slack for the theorem bounds' comparisons.
EPS = 1e-9


def within_tolerance(cost: float, optimum: float, mu: float = MU) -> bool:
    """C_avg ≤ µ·C*_avg; an empty optimum has nothing to drift from."""
    return optimum <= 0 or cost <= mu * optimum


def checkout_bound_holds(result, num_edges: int, num_versions: int) -> bool:
    """Theorem 5.2: a LyreSplit result's C_avg < (1/δ)·|E|/|V|."""
    bound = num_edges / num_versions / result.delta
    return result.estimated_checkout < bound + EPS


def storage_bound_holds(result, num_records: int) -> bool:
    """Theorem 5.2: a LyreSplit result's S ≤ (1+δ)^ℓ·|R| (Theorem 5.3
    for a DAG: pass |R| + |R̂| as ``num_records``)."""
    bound = (1 + result.delta) ** result.recursion_depth * num_records
    return result.estimated_storage <= bound + EPS
