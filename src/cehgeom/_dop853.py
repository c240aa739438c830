r"""The Dormand-Prince 8(5,3) integrator that runs the geodesic flows.

A port of the part of ``scipy.integrate.solve_ivp(fun, t_span, y0,
method="DOP853", rtol=rtol, atol=atol, events=events)`` that
:func:`cehgeom.geodesics._solve` calls (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, II.5): the tableau, the initial step,
the step with its accept/reject control, the dense output, used only to
locate events, and the event loop, whose roots :func:`brentq` finds.
Every operation is scipy's, on operands of the same types and in the same
order, so a run is scipy's bit for bit, ``nfev`` included; under
``np.errstate(... = "raise")`` the same operation raises.  It loads no
scipy.

Nothing else of ``solve_ivp`` is kept: no other method, no ``t_eval``,
``dense_output``, ``args``, ``vectorized``, ``max_step`` or
``first_step``, and no tolerance check (callers keep their own floor).  One
departure: a start whose state or derivative is not finite is a
:class:`DomainError`, where scipy would step forever on a NaN step size.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .profiles import DomainError

EPS = np.finfo(float).eps

SAFETY = 0.9  # factor on the asymptotic step size estimate
MIN_FACTOR = 0.2  # largest decrease of the step size
MAX_FACTOR = 10  # largest increase of the step size
ERROR_EXPONENT = -1 / (7 + 1)  # the error estimate is of order 7

#: brentq's absolute and relative tolerance on an event's root, and its
#: iteration cap
BRENTQ_TOL = 4 * EPS
BRENTQ_MAXITER = 100


def _table(width, *rows):
    """A read-only tableau of ``rows``, each written up to its last nonzero
    entry and padded with zeros to ``width``."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    out.flags.writeable = False
    return out


def _vector(*values):
    out = np.array(values)
    out.flags.writeable = False
    return out


# the tableau: scipy's doubles, written by repr

N_STAGES = 12

A = _table(
    N_STAGES,
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
B = _vector(
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
C = _vector(
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
# the error estimators weigh the N_STAGES + 1 stages, the last f(t + h, y_new)
E3 = _vector(
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
)
E5 = _vector(
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
)

# dense output: three more stages, then the coefficients of its last four
# interpolation powers over all sixteen stages

N_STAGES_EXTENDED = 16

D = _table(
    N_STAGES_EXTENDED,
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
A_EXTRA = _table(
    N_STAGES_EXTENDED,
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
C_EXTRA = _vector(0.1, 0.2, 0.7777777777777778)


class OdeResult(NamedTuple):
    """A run: the accepted times ``t`` and states ``y`` (one column each),
    each event's roots and states, ``status`` (0: reached the end, 1: a
    terminal event, -1: the step size fell below 10 ulp of ``t``) and
    ``nfev``, the number of right-hand-side calls."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    status: int
    nfev: int


def brentq(f, xa, xb):
    """A root of ``f`` between ``xa`` and ``xb``, where its signs differ,
    to within ``BRENTQ_TOL`` absolute and relative: scipy's C ``brentq``
    line for line, with its wrapper's errors (a NaN value of ``f``, no sign
    change, no convergence in ``BRENTQ_MAXITER`` iterations).  Floats and
    signs behave as C's: the sign tests see only nonzero, non-NaN values,
    where ``signbit(x)`` is ``x < 0``, and a step whose quotient divides by
    zero (C: inf or NaN) fails C's short-step test and bisects."""
    xtol = rtol = BRENTQ_TOL

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
            else:
                bound = 3 * abs(sbis) - delta
                if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                    spre, scur = scur, stry  # good short step
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations.")


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """The first step size, for one more right-hand-side call (Hairer,
    Norsett & Wanner, II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)  # t0 + h0 stays inside the interval
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def _dense_output(fun, t_old, t, y_old, y, f, h, K_extended):
    """``sol(t)`` over the last step, from three more stages."""
    K = K_extended
    for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=N_STAGES + 1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t_old + c * h, y_old + dy)

    F = np.empty((7, y_old.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    powers = F[::-1]
    h = t - t_old

    def sol(t):
        x = (np.asarray(t) - t_old) / h
        y = np.zeros_like(y_old)
        for i, f in enumerate(powers):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old
        return y

    return sol


def _crosses(g, g_new, direction):
    """Whether an event's value went from ``g`` to ``g_new`` through 0 in
    its ``direction`` (0: either way)."""
    up = g <= 0 and g_new >= 0
    down = g >= 0 and g_new <= 0
    return up if direction > 0 else down if direction < 0 else up or down


def _step(fun, t, y, f, h_abs, t_bound, direction, rtol, atol, stages, K):
    """One accepted step from ``(t, y)``, of derivative ``f``, trying
    ``h_abs`` first: ``(t_new, y_new, f_new, h, h_abs)`` with the next
    step's ``h_abs``, or None where the step size falls below 10 ulp of
    ``t``.  The stages of the last step tried are left in ``K``."""
    min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    KT, K_last = K.T, K[:-1].T
    step_rejected = False
    while h_abs >= min_step:
        h = h_abs * direction
        t_new = t + h
        if direction * (t_new - t_bound) > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = np.abs(h)

        K[0] = f
        for kt, a, c in stages:
            dy = np.dot(kt, a) * h
            K[len(a)] = fun(t + c * h, y + dy)
        y_new = y + h * np.dot(K_last, B)
        f_new = fun(t + h, y_new)
        K[-1] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.dot(KT, E5) / scale
        err3 = np.dot(KT, E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            if step_rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        step_rejected = True
    return None


def solve_ivp(fun, t_span, y0, rtol, atol, events=()) -> OdeResult:
    """Integrate ``y' = fun(t, y)`` over the nonempty ``t_span`` from the
    real state ``y0`` by DOP853 at tolerances ``rtol`` and ``atol``,
    locating the zeros of each ``event(t, y)`` (its ``terminal`` and
    ``direction`` attributes as in scipy).  ``fun`` returns a float array
    shaped like ``y``.  A start whose state or derivative is not finite
    raises :class:`DomainError`."""
    t0, t_bound = map(float, t_span)
    if t0 == t_bound:
        raise ValueError(f"empty integration span ({t0!r}, {t_bound!r})")
    y = np.asarray(y0, dtype=float)
    direction = np.sign(t_bound - t0)
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    f = counted(t0, y)
    if not (np.isfinite(y).all() and np.isfinite(f).all()):
        raise DomainError(f"the start state and its derivative must be finite, "
                          f"got {y!r} and {f!r}")
    h_abs = _initial_step(counted, t0, y, t_bound, f, direction, rtol, atol)

    K_extended = np.empty((N_STAGES_EXTENDED, y.size))
    K = K_extended[: N_STAGES + 1]
    stages = [(K[:s].T, A[s, :s], C[s]) for s in range(1, N_STAGES)]

    # the roots of each event after which the run stops: its ``terminal``,
    # True (one) or a positive int, with no limit where it is not set
    max_events = [getattr(event, "terminal", None) or np.inf for event in events]
    event_dir = [getattr(event, "direction", 0) for event in events]
    event_count = [0] * len(events)
    g = [event(t0, y) for event in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]

    t = t0
    ts, ys = [t0], [y]
    status = None
    while status is None:
        step = _step(counted, t, y, f, h_abs, t_bound, direction, rtol, atol, stages, K)
        if step is None:
            status = -1
            break
        t_old, y_old = t, y
        t, y, f, h, h_abs = step
        if direction * (t - t_bound) >= 0:
            status = 0

        if events:
            g_new = [event(t, y) for event in events]
            active = [i for i, (a, b, d) in enumerate(zip(g, g_new, event_dir))
                      if _crosses(a, b, d)]
            if active:
                sol = _dense_output(counted, t_old, t, y_old, y, f, h, K_extended)
                for i in active:
                    event_count[i] += 1
                roots = np.asarray([
                    brentq(lambda x, event=events[i]: event(x, sol(x)), t_old, t)
                    for i in active
                ])
                terminate = any(event_count[i] >= max_events[i] for i in active)
                if terminate:  # keep the roots up to the first terminal one
                    order = np.argsort(roots) if t > t_old else np.argsort(-roots)
                    active = [active[j] for j in order]
                    roots = roots[order]
                    last = next(j for j, i in enumerate(active)
                                if event_count[i] >= max_events[i])
                    active, roots = active[: last + 1], roots[: last + 1]
                for i, te in zip(active, roots):
                    t_events[i].append(te)
                    y_events[i].append(sol(te))
                if terminate:
                    status = 1
                    t = roots[-1]
                    y = sol(t)
            g = g_new

        ts.append(t)
        ys.append(y)

    return OdeResult(
        t=np.array(ts), y=np.vstack(ys).T,
        t_events=[np.asarray(te) for te in t_events],
        y_events=[np.asarray(ye) for ye in y_events],
        status=status, nfev=nfev,
    )
