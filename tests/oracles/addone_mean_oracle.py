"""Independent oracle for the add-one estimator's expected chi-square.

Computes E[chi2(p[S] || q[S])] by direct summation over the binomial
marginal of each coordinate's count (q_i depends on coordinate i's count
only, so no multinomial enumeration is needed).  This shares no code with
the closed form analysis.add_one_expected_chi2.

Run:  python tests/oracles/addone_mean_oracle.py
"""

import numpy as np
from scipy.stats import binom


def expected_chi2_bruteforce(p, m, subset):
    total = 0.0
    s = len(subset)
    for i in subset:
        b = np.arange(m + 1)
        pmf = binom.pmf(b, m, p[i])
        q = (b + 1.0) / (m + s)
        total += float(np.sum(pmf * (p[i] - q) ** 2 / q))
    return total


if __name__ == "__main__":
    d, m = 10, 100
    p = np.full(d, 1.0 / d)
    exact = expected_chi2_bruteforce(p, m, list(range(d)))
    print(f"uniform d={d} m={m} full support:")
    print(f"  exact mean      = {exact:.12f}")
    # first-moment form that ignores the zero-count correction
    s = d
    bound = s / (m + s) + ((s - 1) ** 2 / ((m + 1) * (m + s)) - 1 / (m + s)) * 1.0
    print(f"  linear bound    = {bound:.12f}")
    print(f"  (d-1)/(m+1)     = {(d - 1) / (m + 1):.12f}")

    # a skewed case for the module test
    p2 = np.array([0.4, 0.3, 0.2, 0.05, 0.05])
    exact2 = expected_chi2_bruteforce(p2, 60, [0, 1, 3])
    print(f"skewed d=5 m=60 S=[0,1,3]: exact mean = {exact2:.12f}")
