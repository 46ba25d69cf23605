"""Reference computations shared by several test modules: each checks the
package by a second route that the package itself no longer takes."""

from dataclasses import dataclass

import numpy as np

from diskabc import BlaschkeProduct, PolyC, unit_disk_weighted_mean


def dalpha_norm_area(f, alpha: float) -> float:
    """``(1/pi) \\iint_D |f'|^2 (1-|z|)^{1-alpha} dA`` for a polynomial ``f``
    by the weighted unit-disk rule; at alpha = 1 this is exactly the
    Dirichlet integral.  The coefficient route is
    :func:`diskabc.dalpha_norm_coeff`."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    fp = f.derivative()
    return unit_disk_weighted_mean(lambda z: np.abs(fp(z)) ** 2, 1.0 - alpha)


@dataclass(frozen=True)
class AnalyticProduct:
    """Product ``poly * blaschke`` with analytic derivative evaluation."""

    poly: PolyC
    blaschke: BlaschkeProduct

    def __call__(self, z):
        return self.poly(z) * self.blaschke(z)

    def derivative_eval(self, z):
        return (self.poly.derivative()(z) * self.blaschke(z)
                + self.poly(z) * self.blaschke.derivative_eval(z))
