"""
Reference arithmetic for the benchmark's checks, written without the
curvetwist package.

On the once-punctured torus a simple closed curve is a primitive homology
class (p, q) up to sign, and a mapping class acts on it by an integer 2x2
matrix.  In the standard model the curves a = (0, 1, 1) and b = (1, 0, 1)
carry the classes (1, 0) and (0, 1), and the class (p, q) has normal
coordinates (|q|, |p|, |p + q|).  The twist matrices below follow the
package's frozen handedness (T_a sends b to (1, 1, 2), T_b sends a to
(1, 1, 0)), so every check reduces to integer matrix products.
"""

from fractions import Fraction
from math import gcd, isqrt

IDENTITY = ((1, 0), (0, 1))
TWIST = {"a": ((1, 1), (0, 1)), "b": ((1, 0), (-1, 1))}


def mat_mul(m, k):
    return ((m[0][0] * k[0][0] + m[0][1] * k[1][0],
             m[0][0] * k[0][1] + m[0][1] * k[1][1]),
            (m[1][0] * k[0][0] + m[1][1] * k[1][0],
             m[1][0] * k[0][1] + m[1][1] * k[1][1]))


def mat_pow(m, k):
    """m^k by repeated squaring; negative k inverts (determinant one)."""
    if k < 0:
        m = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        k = -k
    out = IDENTITY
    while k:
        if k & 1:
            out = mat_mul(out, m)
        m = mat_mul(m, m)
        k >>= 1
    return out


def word_matrix(factors):
    """Matrix of a twist word given as (name, exponent) pairs, leftmost
    applied last."""
    m = IDENTITY
    for name, k in factors:
        m = mat_mul(m, mat_pow(TWIST[name], k))
    return m


def trace(m):
    return m[0][0] + m[1][1]


def psl_order(m, bound=12):
    """Least p with m^p = +-I, or None below the bound."""
    cur = m
    for p in range(1, bound + 1):
        if cur in (IDENTITY, ((-1, 0), (0, -1))):
            return p
        cur = mat_mul(cur, m)
    return None


def spectral_radius(tr, digits=24):
    """(|tr| + sqrt(tr^2 - 4)) / 2 to within 10^-digits."""
    t = abs(tr)
    if t <= 2:
        raise ValueError("trace %d is not hyperbolic" % tr)
    scale = 10 ** digits
    return Fraction(t * scale + isqrt((t * t - 4) * scale * scale), 2 * scale)


def word_class(factors):
    """'pseudo_anosov', 'periodic' or 'reducible' from the homology matrix,
    with the dilatation, the order in PSL(2, Z), or the fixed slope."""
    m = word_matrix(factors)
    tr = trace(m)
    if abs(tr) > 2:
        return "pseudo_anosov", spectral_radius(tr)
    order = psl_order(m)
    if order is not None:
        return "periodic", order
    return "reducible", fixed_slope(m)


def fixed_slope(m):
    """The primitive class v with m v = +-v for a parabolic m != +-I."""
    (p, q), (r, s) = m
    sign = 1 if p + s == 2 else -1
    # (m - sign I) v = 0: take v from whichever row is non-zero
    u, v = (q, sign - p) if (p - sign, q) != (0, 0) else (sign - s, r)
    g = gcd(u, v)
    return (u // g, v // g)


def weights_of_slope(p, q):
    return (abs(q), abs(p), abs(p + q))


def slope_of_weights(w):
    """The class (p, q), up to sign, of a single curve's coordinates."""
    w0, w1, w2 = w
    if w2 == w0 + w1:
        return (w1, w0)
    return (w1, -w0)


def act_on_slope(m, slope):
    p, q = slope
    return (m[0][0] * p + m[0][1] * q, m[1][0] * p + m[1][1] * q)


def torus_probes(height=3):
    """Coordinates of every curve whose class has entries of size at most
    `height`: one weight triple per class up to sign."""
    out = set()
    for p in range(0, height + 1):
        for q in range(-height, height + 1):
            if gcd(p, q) == 1 and (p > 0 or q > 0):
                out.add(weights_of_slope(p, q))
    return sorted(out)
