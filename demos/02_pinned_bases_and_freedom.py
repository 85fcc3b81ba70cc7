"""Pinning a basis with a target matrix, and the family of pinned bases.

Requiring ``x.T @ d`` to be symmetric positive semidefinite singles out
basis matrices of a subspace.  When the product has full rank k the pinned
basis is unique; when its rank r falls short, the pinned bases form a family
``base + freedom_left @ w @ freedom_right.T`` over orthogonal w of size
k - r.  The family has two members when k - r = 1, and the member closest to
any reference basis (in Frobenius norm) comes from one small polar
decomposition rather than a search.  How far one family lies from another
is one stacked `evaluate_instance` call over members of the second.

Run:  python demos/02_pinned_bases_and_freedom.py
"""

import numpy as np

from subspace_align import (
    align,
    evaluate_instance,
    optimal_representative,
    pinning_matrix,
)
from subspace_align.kernels import haar_orthogonal, random_orthonormal

rng = np.random.Generator(np.random.Philox(key=2))
n, k = 32, 4
d_full = pinning_matrix(n, k)

# Full rank: two different bases of one subspace pin to the same matrix.
x_any = random_orthonormal(n, k, rng)
x1, family = align(x_any, d_full)
x2, _ = align(x_any @ haar_orthogonal(k, rng), d_full)
print("full-rank pinning")
print("  family freedom size :", family.freedom)
print("  ||pinned1 - pinned2||:", np.linalg.norm(x1 - x2))
g = x1.T @ d_full
print("  min eigenvalue of x.T d:", np.linalg.eigvalsh((g + g.T) / 2)[0])
print()

# One zeroed column: the family has exactly two members.
d_one = pinning_matrix(n, k, zero_last=1)
x, family = align(x_any, d_one, rtol=1e-8)
plus = family.member(np.array([[1.0]]))
minus = family.member(np.array([[-1.0]]))
print("one zeroed column (rank k-1)")
print("  freedom size:", family.freedom)
print("  ||member(+1) - member(-1)||_F:", np.linalg.norm(plus - minus))
print()

# Two zeroed columns: infinitely many members; the closest one to a target
# is exact via a 2x2 polar factor.  A dense sample never beats it.
d_two = pinning_matrix(n, k, zero_last=2)
x, family = align(x_any, d_two, rtol=1e-8)
target = random_orthonormal(n, k, rng)
y_opt, w_opt = optimal_representative(family, target)
best = np.linalg.norm(target - y_opt)
sampled = min(
    np.linalg.norm(target - family.member(haar_orthogonal(2, rng)))
    for _ in range(2000)
)
print("two zeroed columns (rank k-2)")
print("  exact closest member distance :", best)
print("  best of 2000 sampled members  :", sampled)
print()

# Distance between two whole families (max over one of min to the other):
# each report measures one member of the second family against the first,
# all 128 sampled members in one stacked call.
y_any, _ = np.linalg.qr(x_any + 0.05 * rng.standard_normal((n, k)))
_, family_b = align(y_any, d_two, rtol=1e-8)
members = family_b.member(haar_orthogonal(family_b.freedom, [rng] * 128))
reports = evaluate_instance(x, members, d_two, "frobenius", rtol=1e-8)
worst = max(reports, key=lambda rep: rep.measured)
print("family-to-family distance over 128 sampled members")
print(f"  value {worst.measured:.6f}, bound xi {worst.xi:.6f}")
