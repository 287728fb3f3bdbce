"""Majorant coefficients of the expansion remainder, exactly and asymptotically.

The truncation tail is dominated by abar_n = gamma_n (2 norm M^p)^n where the
gamma_n count rooted trees of polymer overlaps; for p = 2 they are the Catalan
numbers.  The script prints the exact rationals, confirms the generating
identity w = z (1 + w)^p, and compares the geometric tail estimate with the
directly summed remainder of the table.
"""

from ergm_cluster import (
    abar_recursion,
    coefficient_tail,
    generating_function_check,
    optimal_M,
    radius_and_tail,
)


def main():
    p = 2
    M = optimal_M(p)
    norm = 0.02
    table = abar_recursion(p, norm, M, n_max=20)

    print(f"p = {p}, norm = {norm}, M = {M:.8f}, c = {table.c:.8f}")
    print(f"{'n':>3} {'gamma_n':>12} {'abar_n':>14}")
    for n in range(1, 11):
        g = table.gamma[n]
        print(f"{n:>3} {str(g):>12} {table.abar(n):>14.3e}")

    ok = generating_function_check(p, n_max=20)
    print(f"generating identity through order 20: {'ok' if ok else 'FAILED'}")

    radius, tail = radius_and_tail(p, norm, M)
    print(f"norm radius of the majorant series: {radius:.8f}")
    print()

    print("geometric tail bound against the summed table remainder:")
    full = sum(table.abar(k) for k in range(1, 21))
    for n0 in (2, 4, 6, 8):
        head = sum(table.abar(k) for k in range(1, n0 + 1))
        rest = full - head + coefficient_tail(table, 20)
        print(f"  past order {n0}: bound = {tail(n0):.3e}, "
              f"summed = {rest:.3e}")

    # past the radius the bound is infinite while every finite table order
    # is still a number; the certificate machinery reports, never raises
    hot = abar_recursion(p, 0.1, M, n_max=5)
    print()
    print(f"at norm = 0.1 the tail bound is {coefficient_tail(hot, 5)}")


if __name__ == "__main__":
    main()
