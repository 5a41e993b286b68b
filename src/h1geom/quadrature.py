"""Adaptive quadrature with square-root boundary substitution, all of it this module's own.

Profile integrals use QUADPACK's adaptive 21-point Gauss-Kronrod routine
dqagse (integrate), surface integrals an adaptive product Gauss-Kronrod
cubature (cubature), each behind a small wrapper that checks the reported
error estimate.  Profile integrands of the form g(t)*sqrt(h(t)), with h
vanishing simply at a domain endpoint, lose accuracy for the plain rule;
substituting t = b0 +/- s^2 near that endpoint makes the integrand smooth
again.  This module alone decides where: integrate_with_boundary on a
float, and on arrays of paths integrate_with_boundary_batch (QUADPACK,
the float path's values) and gauss_segments (a fixed rule) through one
helper, _substitution.

dqagse is ported from the published algorithm (Piessens, de
Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, Springer 1983), with
QUADPACK's own literals and its operations in its order, so that every
value, error estimate and interval count is scipy.integrate.quad's bit for
bit (tests/test_quadrature.py pins this against the installed scipy).  It
runs one integral over a float integrand, called once per node in
QUADPACK's order (integrate), or many integrals at once (integrate_batch):
there each round evaluates the qk21 rule in numpy over the intervals that
every unsettled integral bisects, and each integral keeps QUADPACK's
bookkeeping in Python floats.  So no run-time path imports scipy, whose
scipy.integrate alone costs about 0.4 s to import.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys

import numpy as np

from .batch import POINT_FAILURES, elementwise
from .errors import QuadratureError

__all__ = [
    "integrate",
    "integrate_batch",
    "converged",
    "cubature",
    "integrate_with_boundary",
    "integrate_with_boundary_batch",
    "gauss_segments",
]

BOUNDARY_WINDOW = 1e-4  # switch to the sqrt substitution within this distance of a bound

MAX_SUBDIVISIONS = 200  # QUADPACK's interval limit in integrate, cubature's box limit

# gauss_segments' 12-point Gauss-Legendre rule is numpy's leggauss(12) bit for bit, whose nodes are antisymmetric
# and weights symmetric exactly.  Its non-negative nodes and their weights:
_GL12_NODES = np.array([float.fromhex(h) for h in (
    "0x1.007a5f8f630e4p-3", "0x1.78a8d20a8b19dp-2", "0x1.2cb4f05c077f9p-1",
    "0x1.8a30aeed88f36p-1", "0x1.cee874ffb88b3p-1", "0x1.f68f1d8e42e81p-1",
)])
_GL12_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.fe40ce6d4f022p-3", "0x1.de3155c256aaep-3", "0x1.a0163e6b1ab6bp-3",
    "0x1.47d7258f22d96p-3", "0x1.b60602bce61afp-4", "0x1.8275d9dea6d53p-5",
)])
_GL_NODES = np.concatenate([-_GL12_NODES[::-1], _GL12_NODES])
_GL_WEIGHTS = np.concatenate([_GL12_WEIGHTS[::-1], _GL12_WEIGHTS])

# QUADPACK dqk21's data statements: Kronrod abscissae xgk(1..10) (xgk(11) is 0),
# Kronrod weights wgk(1..11) and the weights wg(1..5) of the embedded 10-point Gauss rule
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# cubature's embedded 10-point Gauss rule is scipy's roots_legendre(10), as in scipy's gk21, not
# xgk(2j) and wg(j): two of the five node pairs and all five weights differ in the last bits.
# Its non-negative nodes and their weights, exactly:
_GL10_NODES = np.array([float.fromhex(h) for h in (
    "0x1.30e507891e278p-3", "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f2p-1", "0x1.f2a3e062af2d8p-1",
)])
_GL10_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.2e9de7014d6f7p-2", "0x1.13baa7a559c05p-2", "0x1.c0b059d00bc38p-3", "0x1.32138c878efe3p-3", "0x1.1115f8b62dbd7p-4",
)])
_KRONROD_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]  # qk21 sums the Gauss nodes xgk(2), xgk(4), ... first
_WGK_ORDERED = _WGK[_KRONROD_ORDER]
_OFFSETS = np.concatenate([[0.0], -_XGK, _XGK])  # of the 21 nodes from the centre, in half-lengths
_EPMACH, _UFLOW, _OFLOW = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max  # d1mach(4), (1), (2)
_RESABS_FLOOR = _UFLOW / (50.0 * _EPMACH)  # qk21 raises its error estimate to 50 eps resabs above this
_XGK_LIST, _WGK_LIST, _WG_LIST = _XGK.tolist(), _WGK.tolist(), _WG.tolist()  # the float qk21's copies


def _in_window(distance, bound):
    """Whether a distance (float or array) from a finite domain bound lies in its boundary window."""
    return math.isfinite(bound) and distance < BOUNDARY_WINDOW * max(1.0, abs(bound))


def integrate(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive integral of f over [a, b] to absolute tolerance tol, or to 1e-13 relative.

    QUADPACK's dqagse (:func:`_dqagse`), with f called once per node in
    QUADPACK's order.  QuadratureError if the value is not finite or the
    error estimate exceeds max(100 tol, 1e-8 |value|), as at QUADPACK's
    limit of MAX_SUBDIVISIONS intervals; an exception raised by f
    propagates unchanged.
    """
    if a == b:
        return 0.0
    value, err, _ = _dqagse(f, a, b, tol)
    if not converged(value, err, tol):
        raise QuadratureError(
            f"integral over [{a!r}, {b!r}] did not converge (estimate {err:.3e})"
        )
    return value


def converged(value, err, tol: float):
    """Whether integrate returns a value with this error estimate rather than raise, elementwise on arrays."""
    return np.isfinite(value) & ~(err > np.maximum(100.0 * tol, 1e-8 * np.abs(value)))


def _qk21(f, a: float, b: float):
    """dqk21 over [a, b]: (result, abserr, resabs, resasc), f called at the centre, then at
    centre -/+ hlgth xgk(j) for j = 2, 4, ..., 10, then for j = 1, 3, ..., 9."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK_LIST[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in _KRONROD_ORDER:
        absc = hlgth * _XGK_LIST[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j], fv2[j] = fval1, fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG_LIST[j // 2] * fsum
        resk = resk + _WGK_LIST[j] * fsum
        resabs = resabs + _WGK_LIST[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_LIST[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK_LIST[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio^1.5) as pow(min(1, ratio), 1.5): the same value, and no OverflowError; min(1.0, NaN) is 1.0
        abserr = resasc * math.pow(min(1.0, 200.0 * abserr / resasc), 1.5)
    if resabs > _RESABS_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qk21_rows(values, hlgth):
    """dqk21 for many intervals at once: (result, abserr, resabs, resasc) arrays.

    values is the (n, 21) array of an integrand at each interval's nodes
    (_nodes), hlgth the n half-lengths.  Every weighted sum is a running sum
    (np.add.accumulate, never numpy's pairwise reduction) over its terms in
    the order of dqk21's loops, and the power is libm's, so that each row is
    _qk21's bit for bit.
    """
    fc, fv1, fv2 = values[:, :1], values[:, 1:11], values[:, 11:]

    def running_sum(first, terms):
        return np.add.accumulate(np.concatenate([first, terms], axis=1), axis=1)[:, -1]

    fsum = (fv1 + fv2)[:, _KRONROD_ORDER]
    resg = running_sum(np.zeros_like(fc), _WG * fsum[:, :5])
    resk0 = _WGK[10] * fc
    resk = running_sum(resk0, _WGK_ORDERED * fsum)
    resabs = running_sum(np.abs(resk0), _WGK_ORDERED * (np.abs(fv1) + np.abs(fv2))[:, _KRONROD_ORDER])
    reskh = (resk * 0.5)[:, None]
    resasc = running_sum(_WGK[10] * np.abs(fc - reskh), _WGK[:10] * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh)))
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = np.fmin(1.0, 200.0 * abserr[scaled] / resasc[scaled])  # as _qk21's min(1.0, ratio)
    abserr[scaled] = resasc[scaled] * elementwise(math.pow, ratio, 1.5)
    floor = resabs > _RESABS_FLOOR
    abserr[floor] = np.fmax((_EPMACH * 50.0) * resabs[floor], abserr[floor])  # max() keeps the first of (x, NaN)
    return result, abserr, resabs, resasc


def _nodes(a, b):
    """dqk21's 21 nodes of every interval [a_i, b_i]: an (n, 21) array, the centre first, then
    centre - hlgth xgk(j) and centre + hlgth xgk(j) for j = 1..10, as _qk21 forms them."""
    centr = 0.5 * (a + b)
    nodes = centr[:, None] + (0.5 * (b - a))[:, None] * _OFFSETS  # c + h (-x) is c - h x exactly
    nodes[:, 0] = centr  # and c + h 0 would turn a centre of -0.0 into 0.0
    return nodes


def _first_round_stops(result, abserr, defabs, resabs, epsabs, epsrel, limit):
    """Whether dqagse returns after its first qk21 (floats or arrays): the tolerance met, a
    roundoff flag (ier = 2) or a limit of one interval.  Its resabs is qk21's resasc."""
    errbnd = np.fmax(epsabs, epsrel * np.abs(result))  # epsabs where result is NaN, as max() gives
    roundoff = (abserr <= (100.0 * _EPMACH) * defabs) & (abserr > errbnd)
    return roundoff | (limit == 1) | ((abserr <= errbnd) & (abserr != resabs)) | (abserr == 0.0)


def _dqagse(f, a: float, b: float, tol: float):
    """quad(f, a, b, epsabs=tol, epsrel=max(tol, 1e-13), limit=MAX_SUBDIVISIONS): (value, error, last).

    As quad, a reversed interval is integrated from min(a, b) to max(a, b) and the value negated.
    """
    if b < a:
        value, err, last = _dqagse(f, b, a, tol)
        return -value, err, last
    epsabs, epsrel, limit = tol, max(tol, 1e-13), MAX_SUBDIVISIONS
    result, abserr, defabs, resabs = _qk21(f, a, b)
    if _first_round_stops(result, abserr, defabs, resabs, epsabs, epsrel, limit):
        return result, abserr, 1
    state = _Subdivision(a, b, result, abserr, epsabs, epsrel, limit)
    done = False
    while not done:
        area1, error1, _, defab1 = _qk21(f, state.a1, state.b1)
        area2, error2, _, defab2 = _qk21(f, state.b1, state.b2)
        done = state.step(area1, error1, defab1, area2, error2, defab2)
    return state.result, state.abserr, state.last


class _Subdivision:
    """dqagse's bookkeeping for one integral after a first qk21 that did not settle it.

    Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK (Springer,
    1983), in Python floats, with the lists 1-based as there: a1, b1 and b2
    are the halves of the interval to bisect next; step takes the qk21
    results of the two halves, runs one pass of dqagse's main loop (dqpsrt
    keeps the order of the error estimates, dqelg extrapolates) and says
    whether the integral is done, with its result, abserr and last.
    """

    __slots__ = (
        "a", "b", "epsabs", "epsrel", "limit", "alist", "blist", "rlist", "elist", "iord", "maxerr", "errmax",
        "nrmax", "area", "errsum", "result", "abserr", "last", "rlist2", "numrl2", "res3la", "nres", "ktmin",
        "extrap", "noext", "iroff1", "iroff2", "iroff3", "ierro", "ier", "small", "erlarg", "ertest", "correc",
        "a1", "b1", "b2",
    )

    def __init__(self, a: float, b: float, result: float, abserr: float, epsabs: float, epsrel: float, limit: int):
        self.a, self.b, self.epsabs, self.epsrel, self.limit = a, b, epsabs, epsrel, limit
        self.alist, self.blist, self.rlist, self.elist = [0.0, a], [0.0, b], [0.0, result], [0.0, abserr]
        self.iord = [0] * (limit + 1)
        self.iord[1] = self.maxerr = self.nrmax = self.last = 1
        self.errmax = self.errsum = abserr
        self.area = self.result = result
        self.abserr = _OFLOW
        self.rlist2, self.numrl2 = [0.0, result] + [0.0] * 51, 2
        self.res3la, self.nres = [0.0] * 4, 0
        self.ktmin = self.iroff1 = self.iroff2 = self.iroff3 = self.ierro = self.ier = 0
        self.extrap = self.noext = False
        self.small = self.erlarg = self.ertest = self.correc = 0.0
        self.a1, self.b1, self.b2 = a, 0.5 * (a + b), b

    def step(self, area1, error1, defab1, area2, error2, defab2) -> bool:
        """One pass of dqagse's main loop, given qk21 on [a1, b1] and [b1, b2]; True once done."""
        alist, blist, rlist, elist, iord, limit = self.alist, self.blist, self.rlist, self.elist, self.iord, self.limit
        self.last = last = self.last + 1
        maxerr, errmax, a1, a2, b1, b2 = self.maxerr, self.errmax, self.a1, self.b1, self.b1, self.b2
        erlast = errmax
        area12 = area1 + area2
        erro12 = error1 + error2
        self.errsum = errsum = self.errsum + erro12 - errmax
        self.area = area = self.area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if self.extrap:
                    self.iroff2 += 1
                else:
                    self.iroff1 += 1
            if last > 10 and erro12 > errmax:
                self.iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(self.epsabs, self.epsrel * abs(area))
        if self.iroff1 + self.iroff2 >= 10 or self.iroff3 >= 20:
            self.ier = 2
        if self.iroff2 >= 5:
            self.ierro = 3
        if last == limit:
            self.ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            self.ier = 4  # bad integrand behaviour at a point of the range
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax = self._dqpsrt(last, maxerr)
        if errsum <= errbnd:
            return self._sum()
        if self.ier:
            return self._finish()
        if self._extrapolate(last, maxerr, errmax, a1, b1, erlast, erro12, errbnd):
            return True
        self.a1, self.b2 = alist[self.maxerr], blist[self.maxerr]
        self.b1 = 0.5 * (self.a1 + self.b2)
        return False

    def _extrapolate(self, last, maxerr, errmax, a1, b1, erlast, erro12, errbnd) -> bool:
        """The rest of the main loop's pass: the extrapolation test, after the error bound was not met."""
        alist, blist, elist, iord = self.alist, self.blist, self.elist, self.iord
        self.maxerr, self.errmax = maxerr, errmax
        if last == 2:
            self.small = abs(self.b - self.a) * 0.375
            self.erlarg = self.errsum
            self.ertest = errbnd
            self.rlist2[2] = self.area
            return False
        if self.noext:
            return False
        self.erlarg -= erlast
        if abs(b1 - a1) > self.small:
            self.erlarg += erro12
        small = self.small
        if not self.extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                return False
            self.extrap = True
            self.nrmax = 2
        if not (self.ierro == 3 or self.erlarg <= self.ertest):
            # the smallest interval has the largest error: first bisect the larger intervals
            jupbnd = last if last <= 2 + self.limit // 2 else self.limit + 3 - last
            for _ in range(self.nrmax, jupbnd + 1):
                self.maxerr = maxerr = iord[self.nrmax]
                self.errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    return False
                self.nrmax += 1
        self.numrl2 += 1
        self.rlist2[self.numrl2] = self.area
        reseps, abseps = self._dqelg()
        self.ktmin += 1
        if self.ktmin > 5 and self.abserr < 1e-3 * self.errsum:
            self.ier = 5
        if not abseps >= self.abserr:  # so a NaN abseps is taken, as QUADPACK's goto has it
            self.ktmin = 0
            self.abserr = abseps
            self.result = reseps
            self.correc = self.erlarg
            self.ertest = max(self.epsabs, self.epsrel * abs(reseps))
            if self.abserr <= self.ertest:
                return self._finish()
        # prepare the bisection of the smallest interval
        if self.numrl2 == 1:
            self.noext = True
        if self.ier == 5:
            return self._finish()
        self.maxerr = iord[1]
        self.errmax = elist[self.maxerr]
        self.nrmax = 1
        self.extrap = False
        self.small *= 0.5
        self.erlarg = self.errsum
        return False

    def _finish(self) -> bool:
        """dqagse's label 100: keep the extrapolated result, or take the sum of the intervals."""
        if self.abserr == _OFLOW:
            return self._sum()
        if self.ier + self.ierro:
            if self.ierro == 3:
                self.abserr += self.correc
            result, area = self.result, self.area
            if result != 0.0 and area != 0.0:
                if self.abserr / abs(result) > self.errsum / abs(area):
                    return self._sum()
            elif self.abserr > self.errsum:
                return self._sum()
        return True  # the divergence test that follows sets only ier

    def _sum(self) -> bool:
        """dqagse's label 115: the result is the sum of the intervals' results in storage order."""
        result = 0.0
        for k in range(1, self.last + 1):
            result = result + self.rlist[k]
        self.result, self.abserr = result, self.errsum
        return True

    def _dqpsrt(self, last: int, maxerr: int):
        """dqpsrt: keep iord descending in the error estimates; (maxerr, errmax) of the nrmax-th largest."""
        elist, iord, nrmax = self.elist, self.iord, self.nrmax
        if last <= 2:
            iord[1], iord[2] = 1, 2
        else:
            errmax = elist[maxerr]
            # a subdivision that increased the error: move up from the nrmax-th place
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
            # keep only as many in order as subdivisions remain
            jupbn = last if last <= self.limit // 2 + 2 else self.limit + 3 - last
            errmin = elist[last]
            jbnd = jupbn - 1
            for i in range(nrmax + 1, jbnd + 1):
                isucc = iord[i]
                if errmax >= elist[isucc]:
                    iord[i - 1] = maxerr  # insert errmax top-down, then errmin bottom-up
                    k = jbnd
                    for _ in range(i, jbnd + 1):
                        isucc = iord[k]
                        if errmin < elist[isucc]:
                            iord[k + 1] = last
                            break
                        iord[k + 1] = isucc
                        k -= 1
                    else:
                        iord[i] = last
                    break
                iord[i - 1] = isucc
            else:
                iord[jbnd] = maxerr
                iord[jupbn] = last
        self.nrmax = nrmax
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr]

    def _dqelg(self):
        """dqelg: Wynn's epsilon algorithm on rlist2[1..numrl2]; (result, abserr), numrl2 updated."""
        epstab, res3la, n = self.rlist2, self.res3la, self.numrl2
        self.nres = nres = self.nres + 1
        abserr = _OFLOW
        result = epstab[n]
        if n >= 3:
            epstab[n + 2] = epstab[n]
            newelm = (n - 1) // 2
            epstab[n] = _OFLOW
            num = k1 = n
            for i in range(1, newelm + 1):
                k2, k3 = k1 - 1, k1 - 2
                res = epstab[k1 + 2]
                e0, e1, e2 = epstab[k3], epstab[k2], res
                e1abs = abs(e1)
                delta2 = e2 - e1
                err2 = abs(delta2)
                tol2 = max(abs(e2), e1abs) * _EPMACH
                delta3 = e1 - e0
                err3 = abs(delta3)
                tol3 = max(e1abs, abs(e0)) * _EPMACH
                if not (err2 > tol2 or err3 > tol3):
                    # e0, e1 and e2 equal to machine accuracy: convergence
                    self.numrl2 = n
                    return res, max(err2 + err3, 5.0 * _EPMACH * abs(res))
                e3 = epstab[k1]
                epstab[k1] = e1
                delta1 = e1 - e3
                err1 = abs(delta1)
                tol1 = max(e1abs, abs(e3)) * _EPMACH
                if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                    n = i + i - 1  # two elements very close: omit part of the table
                    break
                ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
                epsinf = abs(ss * e1)
                if not epsinf > 1e-4:
                    n = i + i - 1  # irregular behaviour in the table
                    break
                res = e1 + 1.0 / ss
                epstab[k1] = res
                k1 -= 2
                error = err2 + abs(res - e2) + err3
                if not error > abserr:
                    abserr = error
                    result = res
            if n == 50:  # limexp
                n = 49
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):  # shift the table
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
                res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
        self.numrl2 = n
        return result, max(abserr, 5.0 * _EPMACH * abs(result))


def integrate_batch(f, a, b, tol: float = 1e-10):
    """:func:`integrate`'s QUADPACK run for several integrands over every [a_i, b_i] at once.

    f(nodes, paths) maps an (n, 21) array of qk21 nodes, row j on the
    interval paths[j], to a tuple of (n, 21) value arrays, one per
    integrand.  Each round evaluates f once: over the whole intervals
    first, then over both halves of the interval that each unsettled
    integral bisects next, a half shared by two integrands of one interval
    once.  qk21 runs in numpy (_qk21_rows), the first round's test over
    the whole batch, and each integral that subdivides keeps dqagse's
    bookkeeping in Python floats (_Subdivision).  Returns one (values,
    errors, lasts) triple of arrays per integrand: quad's value, error
    estimate and infodict["last"] bit for bit; :func:`converged` tells
    where integrate would raise.  Run it under np.errstate(all="ignore")
    where values may overflow.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    flip = b < a  # integrated over [b, a] and negated, as quad does
    a, b = np.where(flip, b, a), np.where(b > a, b, a)
    epsabs, epsrel, limit = tol, max(tol, 1e-13), MAX_SUBDIVISIONS
    n = len(a)
    parts = f(_nodes(a, b), np.arange(n))
    result, abserr, defabs, resabs = _qk21_rows(np.concatenate(parts), np.concatenate([0.5 * (b - a)] * len(parts)))
    lasts = np.ones(len(result), dtype=int)
    pending = np.flatnonzero(~_first_round_stops(result, abserr, defabs, resabs, epsabs, epsrel, limit))
    states = []  # (row of the integral, its bookkeeping), only for the integrals that subdivide
    if pending.size:
        firsts = zip(a[pending % n].tolist(), b[pending % n].tolist(), result[pending].tolist(), abserr[pending].tolist())
        states = [(k, _Subdivision(*first, epsabs, epsrel, limit)) for k, first in zip(pending.tolist(), firsts)]
    while states:
        halves = {}  # (path, a1, b2) of each interval bisected this round, in order
        slots = [(k // n, 2 * halves.setdefault((k % n, state.a1, state.b2), len(halves))) for k, state in states]
        paths, a1, b2 = (np.array(column) for column in zip(*halves))
        b1 = 0.5 * (a1 + b2)
        lo, hi = np.stack([a1, b1], axis=1).ravel(), np.stack([b1, b2], axis=1).ravel()
        values = np.concatenate(f(_nodes(lo, hi), paths.repeat(2)))
        rows = np.array([2 * len(halves) * integrand + first for integrand, first in slots]).repeat(2)
        rows[1::2] += 1  # each integral's two halves, one after the other
        area, error, _, defab = (x.tolist() for x in _qk21_rows(values[rows], 0.5 * (hi - lo)[rows % len(lo)]))
        unsettled = []
        for j, (k, state) in enumerate(states):
            if state.step(area[2 * j], error[2 * j], defab[2 * j], area[2 * j + 1], error[2 * j + 1], defab[2 * j + 1]):
                result[k], abserr[k], lasts[k] = state.result, state.abserr, state.last
            else:
                unsettled.append((k, state))
        states = unsettled
    shape = (len(parts), n)
    values = result.reshape(shape)
    return list(zip(np.where(flip, -values, values), abserr.reshape(shape), lasts.reshape(shape)))


@functools.cache
def _gk21(ndim: int):
    """The product rule gk21 on [-1, 1]^ndim: (nodes, weights), 21^ndim Kronrod rows then 10^ndim Gauss rows.

    Built as scipy's ProductNestedFixed of GaussKronrodQuadrature(21) builds
    it: each table is the Cartesian product of the 1-D rule (last axis
    fastest), each weight the product of its factors.  The Gauss weights are
    negated, so the weighted sum over every row is Kronrod minus Gauss.
    """
    kronrod = np.concatenate([_XGK, [0.0], -_XGK[::-1]]), np.concatenate([_WGK, _WGK[9::-1]])
    gauss = np.concatenate([-_GL10_NODES[::-1], _GL10_NODES]), np.concatenate([_GL10_WEIGHTS[::-1], _GL10_WEIGHTS])
    (xk, wk), (xg, wg) = ((_product([x] * ndim), np.prod(_product([w] * ndim), axis=-1)) for x, w in (kronrod, gauss))
    return np.concatenate([xk, xg]), np.concatenate([wk, -wg])


def _product(arrays):
    """The Cartesian product of 1-D arrays as rows, the last array fastest."""
    return np.stack(np.meshgrid(*arrays, indexing="ij"), axis=-1).reshape(-1, len(arrays))


class _Box(tuple):
    """(max |error|, a, b, estimate, error) of a box; heapq pops the largest max |error| first, as scipy does."""

    def __lt__(self, other):
        return self[0] > other[0]


def _box(weights, a_k, b_k, values):
    """The gk21 estimate and error of f over the box [a_k, b_k], from f's values at its nodes, as a heap entry."""
    ndim = len(a_k)
    terms = (weights * (np.prod(b_k - a_k) / 2**ndim)).reshape(-1, *[1] * (values.ndim - 1)) * values
    est, err = np.sum(terms[: 21**ndim], axis=0), np.abs(np.sum(terms, axis=0))
    return _Box((np.max(err), a_k, b_k, est, err))


def cubature(f, problems):
    """Adaptive cubatures of vectorized integrands over finite boxes in lockstep: a (values, errors) pair per problem.

    Each problem is a triple (a, b, tol), the box [a, b] (a <= b) of any
    dimension and the absolute tolerance tol, met by each component of the
    integrand or else 1e-13 relative.  Each problem is scipy's cubature(f_k,
    a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=MAX_SUBDIVISIONS)
    bit for bit: the product 21-point Gauss-Kronrod rule with the embedded
    10-point Gauss rule as error estimate, the box of largest error split
    into 2^ndim halves next, with scipy's operations in scipy's order.

    f maps a list of node arrays, one (n, ndim) array per problem or None
    for a problem that takes no box this round, to a list of (n, ...) value
    arrays, None likewise.  Each round it is called once: first over every
    problem's box, then over the halves of the box that each unconverged
    problem splits, each box's 21^ndim Kronrod nodes followed by its
    10^ndim Gauss nodes.  A problem alone thus costs 1 + subdivisions
    calls.  QuadratureError if a problem reaches its MAX_SUBDIVISIONS-th
    subdivision or a result that is not finite, the first such problem's in
    order.  Where f raises a point failure (batch.POINT_FAILURES) in a call
    of several problems, each problem runs again alone, in order, so that
    the error raised is the one that running them one after another raises.
    """
    rules = [_gk21(len(a)) for a, _, _ in problems]
    # scipy's totals start from 0.0, so a first estimate of -0.0 becomes 0.0
    heaps, totals, subdivisions = [[] for _ in problems], [(0.0, 0.0)] * len(problems), [0] * len(problems)
    split = [[(np.asarray(a, dtype=float), np.asarray(b, dtype=float))] for a, b, _ in problems]  # this round's boxes
    while any(split):
        nodes = [
            np.concatenate([(x + 1) * ((b_k - a_k) * 0.5) + a_k for a_k, b_k in boxes]) if boxes else None
            for (x, _), boxes in zip(rules, split)
        ]
        try:
            values = f(nodes)
        except POINT_FAILURES:
            if len(problems) > 1:  # each problem alone, in order, raises what running them in turn raises
                for k, problem in enumerate(problems):
                    cubature(lambda x, k=k: f([None] * k + x + [None] * (len(problems) - k - 1))[k : k + 1], [problem])
            raise
        for k, boxes in enumerate(split):
            if not boxes:
                continue
            value, error = totals[k]
            for (a_k, b_k), part in zip(boxes, np.split(values[k], len(boxes))):
                heapq.heappush(heaps[k], child := _box(rules[k][1], a_k, b_k, part))
                value, error = value + child[3], error + child[4]
            split[k] = []
            if subdivisions[k] < MAX_SUBDIVISIONS and np.any(error > problems[k][2] + 1e-13 * np.abs(value)):
                _, a_k, b_k, est, err = heapq.heappop(heaps[k])
                value, error = value - est, error - err
                mid = (a_k + b_k) / 2
                split[k] = list(zip(_product(np.stack([a_k, mid], axis=1)), _product(np.stack([mid, b_k], axis=1))))
                subdivisions[k] += 1
            totals[k] = value, error
    for (a, b, _), (value, error), n in zip(problems, totals, subdivisions):
        if n == MAX_SUBDIVISIONS or not (np.isfinite(value).all() and np.isfinite(error).all()):
            raise QuadratureError(
                f"cubature over the box {list(a)!r} to {list(b)!r} did not converge (estimate {np.max(error):.3e})"
            )
    return totals


def integrate_with_boundary(f, a: float, b: float, bounds, tol: float = 1e-10) -> float:
    """Like :func:`integrate`, substituting t = b0 +/- s^2 near a domain bound.

    bounds is the open existence interval (lo, hi) of the integrand; either
    entry may be infinite.  The path [a, b] (a <= b) must lie inside it.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate_with_boundary(f, b, a, bounds, tol)
    lo, hi = bounds
    near_lo, near_hi = _in_window(a - lo, lo), _in_window(hi - b, hi)
    if near_lo and near_hi:
        # split at the domain's midpoint: the path's own recurses forever on a domain narrower than the window
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            return integrate_with_boundary(f, a, mid, bounds, 0.5 * tol) + integrate_with_boundary(
                f, mid, b, bounds, 0.5 * tol
            )
        near_lo, near_hi = b <= mid, a >= mid  # then substitute at the nearer bound
    if near_lo:
        # t = lo + s^2, dt = 2 s ds
        sa, sb = math.sqrt(a - lo), math.sqrt(b - lo)
        return integrate(lambda s: 2.0 * s * f(lo + s * s), sa, sb, tol)
    if near_hi:
        # t = hi - s^2, dt = -2 s ds; reversing limits keeps the sign
        sa, sb = math.sqrt(hi - b), math.sqrt(hi - a)
        return integrate(lambda s: 2.0 * s * f(hi - s * s), sa, sb, tol)
    return integrate(f, a, b, tol)


def _substitution(a, b, bounds, both_lower: bool):
    """The boundary-window substitution of the paths [a_i, b_i] in bounds = (lo, hi): (both, x0, x1, in_s).

    A path in the window of lo runs in s = sqrt(t - lo), one in that of hi in s = sqrt(hi - t), one in both
    (both) in lo's if both_lower and in t otherwise; x0 and x1 are its ends in its variable.  in_s(f, s, paths)
    gives f's arrays at the nodes s, row j on paths[j], mapped back to t and times dt/ds = 2 s in a window.
    """
    lo, hi = bounds
    none = np.zeros(len(a), dtype=bool)
    near_lo, near_hi = none | _in_window(np.minimum(a, b) - lo, lo), none | _in_window(hi - np.maximum(a, b), hi)
    lower, upper = near_lo if both_lower else near_lo & ~near_hi, near_hi & ~near_lo
    x0, x1 = a.copy(), b.copy()
    x0[lower], x1[lower] = np.sqrt(a[lower] - lo), np.sqrt(b[lower] - lo)
    x0[upper], x1[upper] = np.sqrt(hi - b[upper]), np.sqrt(hi - a[upper])  # a reversed path stays reversed in s

    def in_s(f, s, paths):
        low, up = lower[paths], upper[paths]
        t = s.copy()
        t[low], t[up] = lo + s[low] * s[low], hi - s[up] * s[up]
        ds = 2.0 * np.where((low | up)[:, None], s, 0.5)  # dt = +/- 2 s ds, the sign that of the path in s
        return [x * ds for x in f(t)]

    return near_lo & near_hi, x0, x1, in_s


def integrate_with_boundary_batch(f, floats, a, b, bounds, tol: float = 1e-10) -> np.ndarray:
    """:func:`integrate_with_boundary` of each float integrand floats[k] over every path [a_i, b_i], as row k.

    f(t) gives every integrand at an array of t with the bits of floats[k].  One :func:`integrate_batch` run takes
    every path in its own variable (a reversed one negated); the float path itself, integrand by integrand in order,
    takes paths in both windows, empty or non-finite paths and integrals that :func:`converged` rejects.  A point
    failure raised by f propagates.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    values = np.full((len(floats), len(a)), math.nan)  # NaN until settled: a converged value is finite
    with np.errstate(all="ignore"):
        both, x0, x1, in_s = _substitution(a, b, bounds, False)
        rows = np.flatnonzero(~both & (x0 != x1) & np.isfinite(x0) & np.isfinite(x1))
        if rows.size:
            batch = integrate_batch(lambda s, paths: in_s(f, s, rows[paths]), x0[rows], x1[rows], tol)
            for k, (result, error, _) in enumerate(batch):
                values[k, rows] = np.where(converged(result, error, tol), result, math.nan)
        starts, ends = a.tolist(), b.tolist()
        for out, g in zip(values, floats):
            for i in np.flatnonzero(np.isnan(out)).tolist():
                out[i] = integrate_with_boundary(g, starts[i], ends[i], bounds, tol)
    return values


def gauss_segments(f, a: np.ndarray, b: np.ndarray, bounds) -> list[np.ndarray]:
    """Fixed 12-point Gauss-Legendre integrals over the segments [a_i, b_i] (a_i <= b_i) at once.

    Used for incremental accumulation along profile curves, where the
    per-segment truncation error must sit far below adaptive tolerances.
    f maps an (n, 12) array of nodes to a tuple of integrand arrays (scalars
    broadcast) and returns one array of n integrals per integrand.  A
    segment in the boundary window of the open interval ``bounds`` = (lo, hi)
    is integrated in s, with t = lo + s^2 (tested first) or t = hi - s^2 and
    the values times 2 s.  Each weighted sum runs over the nodes in order
    from 0.0, so a segment's integral does not depend on the batch.
    """
    _, x0, x1, in_s = _substitution(a, b, bounds, True)
    half = 0.5 * (x1 - x0)
    mid = 0.5 * (x0 + x1)
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    results = []
    for values in in_s(f, nodes, slice(None)):
        total = np.zeros(len(nodes))
        for k, w in enumerate(_GL_WEIGHTS):
            total = total + w * values[:, k]
        results.append(half * total)
    return results
