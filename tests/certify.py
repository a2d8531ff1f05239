"""A checkable certificate for each slab of a spectral trace.

The spectral value of a class h at a parameter is the least top action
over its coset h + im(d).  A value rho has a witness for each bound
(McConnell, Mehlhorn, Naher & Schweitzer, *Certifying algorithms*,
Comput. Sci. Rev. 5(2), 2011; the dual witness is that of Usher,
*Duality in filtered Floer-Novikov complexes*, J. Topol. Anal. 2(2),
2010):

* upper bound: a chain y with x = h + y.d topping out at rho, so some
  element of the coset tops out there;
* lower bound: a functional phi that is zero on every generator of
  action below rho, kills every row of d and does not kill h.  Then
  phi(x) = phi(h) != 0 for every x in the coset, so x is nonzero on some
  generator at or above rho.  Over Z, phi is rational, integral on
  every row of d, and phi(h) is not an integer: phi(x) - phi(h) is an
  integer, so again phi(x) != 0.

check reads the differential's entries, h, the actions at one
parameter and the two witnesses, and does one product and a few dot
products: no elimination, and nothing from morseflow.algebra or
morseflow.tracker.  witness builds both witnesses from the engine's
echelon (algebra.ordered_echelon and reduce_against); a wrong witness
fails the check, so the builder need not be trusted.  certify_trace
runs both on every slab of a trace, at the slab's midpoint.
"""

from fractions import Fraction

import oracles

NEG_INF = float("-inf")


def _dot(f, v):
    return sum((f[g] * x for g, x in v.items() if g in f), 0)


def coset_element(d, h, y):
    """x = h + y.d, unreduced, as {generator: coefficient}."""
    x = dict(h)
    for (g, c), v in d.items():
        if g in y:
            x[c] = x.get(c, 0) + y[g] * v
    return x


def check(ring, d, h, actions, rho, y, phi):
    """None when (y, phi) certifies that rho is the least top action over
    h + im(d), else the reason it does not.

    ring is the coefficient ring (its name is read: Z2, Z or Q); d maps
    (row, column) to the differential's nonzero entries; h, y and phi
    map generators to coefficients (phi's are rationals over Z); actions
    maps each generator to its action.  rho = -inf claims that h is a
    boundary, witnessed by y alone.
    """
    mod2, integral = ring.name == "Z2", ring.name == "Z"

    def zero(v):
        return v % 2 == 0 if mod2 else v == 0

    if integral and any(Fraction(v).denominator != 1 for v in y.values()):
        return "y is not integral"
    x = coset_element(d, h, y)
    top = max((actions[g] for g, v in x.items() if not zero(v)),
              default=NEG_INF)
    if top != rho:
        return "h + y.d tops out at %s, not at %s" % (top, rho)
    if rho == NEG_INF:
        return None
    if any(not zero(v) and actions[g] < rho for g, v in phi.items()):
        return "phi is nonzero below %s" % (rho,)
    rows = {}
    for (g, c), v in d.items():
        rows.setdefault(g, {})[c] = v
    for g, row in rows.items():
        v = _dot(phi, row)
        if Fraction(v).denominator != 1 if integral else not zero(v):
            return "phi does not kill the row of %r" % (g,)
    v = _dot(phi, h)
    if Fraction(v).denominator == 1 if integral else zero(v):
        return "phi kills h"
    return None


def witness(ring, d, h, order):
    """(y, phi) for the least top action over h + im(d), order listing
    the generators from highest action down.

    y: h reduced against the echelon of the tagged rows (row | e_row),
    the tags placed after every generator.  On the generators the
    echelon is that of d's rows (a tag never meets a generator), so the
    reduction stops where the engine's does, at the least position l
    that any element of the coset can lead at, and the tag part of the
    reduced vector is y.  phi: 1 at l over a field; over Z, 1/b[l] when
    l holds a pivot b that does not divide the reduced entry there, and
    1/(2 v[l]) when it holds none; then back-substituted through the
    pivots before l, from l down, so that phi kills each of them.  The
    pivots after l are zero up to l, and v is zero before l, so
    phi(h) = phi(v) is 1, v[l]/b[l] (not an integer) or 1/2.
    """
    from morseflow.algebra import ordered_echelon, reduce_against

    zero, one = ring.zero, ring.one
    n = len(order)
    pos = {g: i for i, g in enumerate(order)}
    held = {g for g, _ in d}
    tagged = [g for g in order if g in held]
    rows = {g: [zero] * (n + len(tagged)) for g in tagged}
    for (g, c), v in d.items():
        rows[g][pos[c]] = v
    for k, g in enumerate(tagged):
        rows[g][n + k] = one
    pivots = ordered_echelon(ring, [rows[g] for g in tagged])
    v, l = reduce_against(
        ring, [h.get(g, zero) for g in order] + [zero] * len(tagged), pivots)
    y = {g: v[n + k] for k, g in enumerate(tagged) if v[n + k] != zero}
    if l is None or l >= n:
        return y, {}
    if ring.is_field():
        coef = {l: one}
    elif l in pivots:
        coef = {l: Fraction(1, pivots[l][l])}
    else:
        coef = {l: Fraction(1, 2 * v[l])}
    for p in sorted((p for p in pivots if p < l), reverse=True):
        b = pivots[p]
        s = -sum(f * b[q] for q, f in coef.items())
        coef[p] = s % 2 if ring.name == "Z2" else Fraction(s) / b[p]
    return y, {order[p]: f for p, f in coef.items() if f}


def certify_trace(trace, log, w):
    """The reasons, one per slab that fails, that the slabs of trace, a
    track_class trace of the family of log in the window w, are not
    certified: an empty list when every slab is.

    Each slab is checked at its midpoint on its interval's
    representative (trace.classes) and windowed differential, the
    in-window generators and their actions read by the midpoint
    references of oracles.  The witnesses must certify the action of the
    slab's top there; the slab's support must be that of h + y.d, in
    descending order, and its values the top's at its ends.
    """
    t, ring = log.family, log.ring
    reps = {c.interval_index: dict(c.representative) for c in trace.classes}
    complexes = {}
    bad = []

    def action(g, r):
        return oracles.profile_value(t.arc(g).f3.points, r)

    for s in trace.segments:
        i = s.interval_index
        if i not in complexes:
            fc = log.intervals[i]
            keep = set(oracles.in_window_at(t, w, fc.midpoint()))
            d = {(g, c): v for (g, c), v in fc.gamma.entries.items()
                 if g in keep and c in keep}
            # no element of the coset is nonzero off h and d's entries
            complexes[i] = set(reps[i]).union(*d), d
        gens, d = complexes[i]
        h = reps[i]
        r = (s.r_lo + s.r_hi) / 2
        acts = {g: action(g, r) for g in gens}
        order = sorted(gens, key=lambda g: (-acts[g], str(g)))
        rho = NEG_INF if s.top is None else acts[s.top]
        y, phi = witness(ring, d, h, order)
        why = check(ring, d, h, acts, rho, y, phi)
        if why is None:
            x = coset_element(d, h, y)
            support = tuple(g for g in order if ring.coerce(x.get(g, 0)))
            ends = ((NEG_INF, NEG_INF) if s.top is None else
                    (action(s.top, s.r_lo), action(s.top, s.r_hi)))
            if support != s.support:
                why = "support %s, not %s" % (support, s.support)
            elif (s.rho_lo, s.rho_hi) != ends:
                why = "values %s, %s, not %s, %s" % ((s.rho_lo, s.rho_hi) + ends)
        if why is not None:
            bad.append("slab %s-%s of interval %d: %s"
                       % (s.r_lo, s.r_hi, i, why))
    return bad
