r"""Connection and curvature of the Ricci-flat metric, in closed form.

On a Kahler manifold only the holomorphic connection coefficients survive,
``Gamma^lam_{mu alpha} = g_{mu nubar, alpha} g^{nubar lam}``, symmetric in
the lower pair.  For any rotationally symmetric potential they reduce to

    Gamma^lam_{mu alpha} = -(phi/u) (delta^lam_mu zbar_alpha
                                     + delta^lam_alpha zbar_mu)
        + [(phi(1-phi) - u phi') / (u(1-phi))] zbar_mu zbar_alpha z^lam / u,

which needs only ``phi``, ``1 - phi`` and ``phi'`` -- an overall rescaling
of the metric drops out.  ``_rot_sym_connection`` is the one
implementation; it reads ``1 - phi`` from the profile, whose stable formula
keeps the coefficient exact near the zero section where ``phi`` rounds
to 1.  The Ricci-flat profile has ``phi' = -(n/u) phi (1-phi)``, which
collapses the second coefficient to ``(n+1) phi / u``; :func:`christoffel_ceh`,
the public route, is the general form evaluated on that profile.

The fully lowered curvature tensor ``R_{mu nubar alpha betabar}`` has three
groups of terms: products of two metrics, bilinear in ``zbar (x) z`` against
the metric with weight ``-(n+1) e^{-(n-1) psi}``, and quartic in ``z`` with
weight ``+(n+1)(n+2) e^{-2(n-1) psi}``; the common prefactor is
``phi e^{-psi} / u``.  Contracting everything against the inverse metric
gives the squared curvature norm

    K(u) = n (n+2) (n^2 - 1) a^{2n} / (a^n + u^n)^{2(n+1)/n},

strictly decreasing from ``n(n+2)(n^2-1)/a^2`` at the zero section to zero.
Every function takes lifts ``(..., n)`` (``kretschmann_radial``: radii) and
returns one tensor or value per lift, its stack axes first: ``[..., lam, mu, alpha]``.
Each validates its lift once (:func:`cehgeom.tensors._lift`); the private
kernels behind them take the validated lift and its profile.
"""

from __future__ import annotations

import numpy as np

from .tensors import _lift, _metric, _metric_inverse, _outer, hermitian_outer
from .profiles import GeometryParams, RadialProfile, _definite, _ops, radial_profile

__all__ = [
    "christoffel_ceh",
    "riemann",
    "ricci",
    "kretschmann",
    "kretschmann_radial",
    "kretschmann_contracted",
]


def _rot_sym_connection(z, profile: RadialProfile) -> np.ndarray:
    u, phi, omp = profile.u, profile.phi, _definite(profile).one_minus_phi
    zb = np.conj(z)
    delta = np.eye(z.shape[-1])
    b = (..., None, None, None)
    # [..., lam, mu, alpha]
    sym = np.einsum("la,...m->...lma", delta, zb) + np.einsum(
        "lm,...a->...lma", delta, zb
    )
    coef = (phi * omp - u * profile.phi_prime) / (u * omp)
    # zbar_mu zbar_alpha / u is at most 1: no finite lift overflows the cubic
    pair = _outer(zb, zb) / np.asarray(u)[..., None, None]
    cubic = np.einsum("...ma,...l->...lma", pair, z)
    return -np.asarray(phi / u)[b] * sym + np.asarray(coef)[b] * cubic


def christoffel_ceh(z, params: GeometryParams) -> np.ndarray:
    """Connection of the Ricci-flat metric at lifts ``(..., n)``, indexed
    ``[..., lam, mu, alpha]``.

    ``Gamma^lam_{mu alpha} = -(phi/u) (zbar_mu delta^lam_alpha
    + zbar_alpha delta^lam_mu - (n+1) zbar_alpha zbar_mu z^lam / u)``.
    """
    return _rot_sym_connection(*_lift(z, params))


def riemann(z, params: GeometryParams) -> np.ndarray:
    """Fully lowered curvature tensor at lifts ``(..., n)``, indexed
    ``[..., mu, nu, alpha, beta]`` for ``R_{mu nubar alpha betabar}``.

    Symmetric under exchange of the holomorphic pair ``mu <-> alpha`` and of
    the anti-holomorphic pair ``nu <-> beta``; Hermitian in the sense
    ``R[..., m, n, a, b] = conj(R[..., n, m, b, a])``.
    """
    z, prof = _lift(z, params)
    return _riemann(z, prof, _metric(z, prof), params)


def _riemann(z, prof: RadialProfile, g, params: GeometryParams) -> np.ndarray:
    # g is the metric at z, which every caller already holds
    n, u = params.n, prof.u
    power = _ops(u).pow  # libm's, so a stack rounds as one lift does
    w = power(prof.e_psi, -(n - 1))
    # per-lift coefficients, broadcast over the four tensor axes
    pref, c2, c3 = (np.asarray(c)[..., None, None, None, None] for c in (
        prof.phi / (u * prof.e_psi), (n + 1) * w, (n + 1) * (n + 2) * power(w, 2)))
    zbz = hermitian_outer(z) / np.asarray(u)[..., None, None]

    t1 = np.einsum("...an,...mb->...mnab", g, g) + np.einsum(
        "...mn,...ab->...mnab", g, g)
    t2 = (
        np.einsum("...mb,...an->...mnab", zbz, g)
        + np.einsum("...ab,...mn->...mnab", zbz, g)
        + np.einsum("...mn,...ab->...mnab", zbz, g)
        + np.einsum("...an,...mb->...mnab", zbz, g)
    )
    t3 = np.einsum("...mn,...ab->...mnab", zbz, zbz)
    return pref * (t1 - c2 * t2 + c3 * t3)


def ricci(z, params: GeometryParams) -> np.ndarray:
    """Ricci tensor by contraction, ``g^{nubar alpha} R_{mu nubar alpha betabar}``,
    indexed ``[..., mu, beta]``.

    Identically zero for this metric; returned so the residual can be
    inspected.  The independent route through ``-d dbar log det g`` lives in
    :func:`cehgeom.numdiff.fd_ricci_log_det`.
    """
    z, prof = _lift(z, params)
    return _ricci(_metric_inverse(z, prof), _riemann(z, prof, _metric(z, prof), params))


def _ricci(ginv, r) -> np.ndarray:
    return np.einsum("...na,...mnab->...mb", ginv, r)


def kretschmann_radial(u, params: GeometryParams):
    """Squared curvature norm as a function of the radius alone; an array
    of radii gives an array of values.

    ``K = n(n+2)(n^2-1) a^{2n} (a^n + u^n)^{-2(n+1)/n}``; evaluated through
    the profile functions so neither power overflows.
    """
    return _kretschmann(radial_profile(u, params), params)


def _kretschmann(prof: RadialProfile, params: GeometryParams):
    n = params.n
    # a^n/(a^n+u^n)^((n+1)/n) = phi * e^-psi / u
    pref = prof.phi / (prof.u * prof.e_psi)
    return n * (n + 2) * (n**2 - 1) * _ops(prof.u).pow(pref, 2)


def kretschmann(z, params: GeometryParams):
    """Squared curvature norm at lifts ``(..., n)``, one value per lift."""
    return _kretschmann(_lift(z, params)[1], params)


def kretschmann_contracted(z, params: GeometryParams):
    """Brute-force curvature norm at lifts ``(..., n)``: contract the
    Riemann tensor with itself, every index raised explicitly with the
    inverse metric."""
    z, prof = _lift(z, params)
    return _squared_norm(_riemann(z, prof, _metric(z, prof), params),
                         _metric_inverse(z, prof))


def _squared_norm(r, ginv):
    """``|R|^2 = R_{mnab} R_{rscd} g^{sm} g^{nr} g^{da} g^{bc}`` of lowered
    curvature tensors ``r``, every index raised with the inverse metrics
    ``ginv`` of the lifts they belong to.

    Four matrix products in the order of numpy's greedy einsum plan, which
    give that plan's result to the bit; the plan's first two products are
    the same product, ``P`` below."""
    n = ginv.shape[-1]
    lead, m = r.shape[:-4], n * n
    k = len(lead)

    def axes(*perm):  # a permutation of the four tensor axes behind the stack
        return (*range(k), *(k + i for i in perm))

    # P[x, y, c, d] = g^{xw} R_{wycd}
    p = (ginv @ r.reshape(*lead, n, m * n)).reshape(*lead, n, n, n, n)
    # C[cd, ab] = sum over (x, y) of P[x, y, c, d] P[y, x, a, b]
    c = (p.transpose(axes(2, 3, 0, 1)).reshape(*lead, m, m)
         @ p.transpose(axes(1, 0, 2, 3)).reshape(*lead, m, m))
    # D[bc] = sum over (a, d) of C[cd, ab] g^{da}
    d = (c.reshape(*lead, n, n, n, n).transpose(axes(3, 0, 2, 1)).reshape(*lead, m, m)
         @ np.swapaxes(ginv, -1, -2).reshape(*lead, m, 1))
    # sum over (b, c) of D[bc] g^{bc}
    return (d.reshape(*lead, 1, m) @ ginv.reshape(*lead, m, 1)).reshape(lead).real[()]
