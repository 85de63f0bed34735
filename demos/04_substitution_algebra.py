"""Exact census algebra: the substitution matrix, its fixed ratio, and
the contraction that pins the kite/dart ratio to phi.

Everything in this script runs on integers and rationals. The only
floats appear at the end, in the eigendata ``dominant_eigen`` takes from
LAPACK (``np.linalg.eig``).
"""

from fractions import Fraction

from penrosenet import (
    PENROSE_SUBSTITUTION,
    PHI,
    PHI_FLOAT,
    SubstitutionRule,
    TileCensus,
    check_prop21,
    generic_substitution_counts,
    iterate_ratio_map,
    ratio_map,
    substitution_counts,
)


def census_recursion() -> None:
    print("substitution matrix", PENROSE_SUBSTITUTION.matrix)
    seed = TileCensus(1, 0)
    for n in (1, 2, 5, 10, 20):
        k, d = substitution_counts(seed, n)
        print(f"  n={n:>2}: {k} kites, {d} darts, ratio {k / d:.12f}")
    print(f"  phi = {PHI_FLOAT:.12f}")


def ratio_gap_certificate() -> None:
    """|K_n/D_n - phi| <= 2^-(n-1), checked in exact arithmetic."""
    trace = check_prop21(TileCensus(5, 3), 12)
    print(f"\nseed (5, 3): all {len(trace.entries)} gap bounds hold -> {trace.all_hold}")
    for entry in trace.entries[:4]:
        print(
            f"  n={entry.n:>2}: ratio {float(entry.ratio):.9f}"
            f"  gap {float(entry.gap):.2e} <= {float(entry.bound):.2e}"
        )


def contraction_ladder() -> None:
    """One application of f(x) = (2x+1)/(x+1) per census round."""
    print("\niterating the ratio map from x0 = 1:")
    values = iterate_ratio_map(Fraction(1), 8)
    for k, x in enumerate(values):
        print(f"  f^{k}(1) = {x} = {float(x):.9f}")
    print(f"  exact fixed point: ratio_map(PHI) == PHI -> {ratio_map(PHI) == PHI}")


def custom_rule() -> None:
    """The machinery is not kite/dart specific."""
    rule = SubstitutionRule(("a", "b", "c"), ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    counts = generic_substitution_counts(rule, (1, 0, 0), 12)
    value, vector = rule.dominant_eigen()
    print(f"\nthree-letter rule after 12 rounds: {counts}")
    print(f"dominant eigenvalue {value:.9f}, eigenvector {tuple(round(v, 6) for v in vector)}")


if __name__ == "__main__":
    census_recursion()
    ratio_gap_certificate()
    contraction_ladder()
    custom_rule()
