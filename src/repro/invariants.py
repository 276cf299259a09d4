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

Problem 6 of Chapter 7 bounds a stored rid list: rebuilding a version
from its rlist row's chain decodes R ≤ θ·|v| rids (R(whole) = |v|,
R(delta) = R(base) + the delta's rids) and reads at most
``CHAIN_ROWS`` delta rows; the commit path chooses rows and the doctor
judges them with :func:`recreation_within`.

Nothing here reads or writes state: checking a rule changes nothing.
"""

#: µ, the migration tolerance factor.
MU = 1.5

#: θ, the recreation bound on a version's rid list, in rids decoded per
#: rid of the version. On 124 versions of 3,000 rows at collab_rw's churn
#: (EXPERIMENTS.md) the rlist chunks take 220.1 KB whole, 60.1 KB at θ = 2
#: (mean R/|v| 1.45), and 47.5 KB at θ = 3 for a third more decoding.
THETA = 2

#: The most delta rows rebuilding a version reads. R alone lets a
#: history that only appends (R = |v| at every step) chain for ever;
#: this writes such a history's row whole every ninth version. At
#: collab_rw's churn θ binds first: 60.7 KB of rlist chunks at 8 or with
#: no cap, 79.8 KB at 4.
CHAIN_ROWS = 8

#: Float slack for the theorem bounds' comparisons.
EPS = 1e-9


def within_tolerance(cost: float, optimum: float, mu: float = MU) -> bool:
    """C_avg ≤ µ·C*_avg; an empty optimum has nothing to drift from."""
    return optimum <= 0 or cost <= mu * optimum


def recreation_within(
    cost: int, size: int, depth: int = 0, theta: float = THETA
) -> bool:
    """R(v) ≤ θ·|v| and depth ≤ ``CHAIN_ROWS``: rebuilding a version
    decodes at most θ rids per rid, from a bounded number of rows."""
    return cost <= theta * size and depth <= CHAIN_ROWS


def checkout_bound_holds(result, num_edges: int, num_versions: int) -> bool:
    """Theorem 5.2: a LyreSplit result's C_avg < (1/δ)·|E|/|V|."""
    bound = num_edges / num_versions / result.delta
    return result.estimated_checkout < bound + EPS


def storage_bound_holds(result, num_records: int) -> bool:
    """Theorem 5.2: a LyreSplit result's S ≤ (1+δ)^ℓ·|R| (Theorem 5.3
    for a DAG: pass |R| + |R̂| as ``num_records``)."""
    bound = (1 + result.delta) ** result.recursion_depth * num_records
    return result.estimated_storage <= bound + EPS
