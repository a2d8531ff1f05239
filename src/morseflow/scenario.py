"""Text format for scenarios: parser, assembler, serializer.

A scenario file is sectioned key-value text with exact rational
literals, so coefficient arithmetic never sees floating point.  Example:

    [coefficients]
    ring = z2

    [arcs]
    c1 : (0, 4) (1, 4)
    up : (1/4, 3) (1/2, 5) (3/4, 3) ends=birth(vb),death(vd)

    [vertices]
    vb : birth r=1/4 f3=3 plus=up minus=down

    [gamma]
    (c2, c3) = 1

    [events]
    slide r=3/8 : (c1, c2) = 1

    [window]
    a = 0
    b = 10

    [track]
    class = c1 + c2

Components are not written: they are implicit in the arcs and the
vertices joining them, and validate_cerf's checks make them loops and
chords.  `#` starts a comment; blank lines separate nothing.  The [phi]
and [rabinowitz] sections configure the growth-bound commands; see
docs/format.md for the complete grammar.

One reader (_read) takes every record of keyed fields, growth bounds
included, and one table (_FIELDS) declares each record kind's keys,
literal readers and defaults.  A token without `=`, an unknown or
repeated key and a missing required key are errors there.  Points are
pairs and nothing else.  One entry reader (_entries) takes every matrix
position, `(id, ..) = value`, and a position appears at most once.
Parse errors carry the line number.
"""

import re
from fractions import Fraction
from typing import NamedTuple

from .bifurcation import (Birth, Death, EventRecord, FlowCounter,
                          HandleSlide)
from .cerf import (Arc, BirthVertex, BoundaryAt0, BoundaryAt1, CerfTuple,
                   DeathVertex, Vertex)
from .errors import (MAX_LITERAL_DIGITS, InvalidParameters, NonUnitError,
                     ScenarioSemanticError, ScenarioSyntaxError)
from .escape import iterlog, linear, polylog, square
from .matrix import SparseMatrix
from .piecewise import Piecewise, frac
from .rabinowitz import (HomotopyModel, HypersurfaceHomotopy, LogTame,
                         SquareTame, SymplecticFormHomotopy, Tame)
from .rings import RINGS, Z2
from .tracker import Window

_SECTIONS = ("coefficients", "arcs", "vertices", "gamma", "events",
             "window", "ladder", "track", "phi", "rabinowitz")


class Scenario(NamedTuple):
    ring: object
    family: CerfTuple
    gamma0: FlowCounter
    events: tuple
    window: object = None          # Window or None
    ladder: tuple = ()
    rep: object = None             # {arc id: ring value} or None
    phi: object = None             # GrowthBound or None
    kappa: object = None
    rho0: object = None
    model: object = None           # HomotopyModel or None
    model_rho0: object = None
    model_kappa: object = None
    path: str = ""


# the form serialize_scenario writes: an optional minus, ASCII digits and
# an optional denominator
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(text, line):
    """An exact number, its size checked before Fraction reads it.

    A literal of the form `[-]digits[/digits]` of at most
    MAX_LITERAL_DIGITS characters and with a nonzero denominator is read
    as Fraction(int, int): it holds no more digits than the bound, and
    the two integers make the value Fraction(text) makes.  Every other
    form (decimals, exponents, `+`, underscores, non-ASCII digits,
    inner spaces, a zero denominator, a longer literal) goes through
    piecewise.frac, the one reader of text as a number, whose message
    the ScenarioSyntaxError carries with the line.
    """
    text = text.strip()
    m = _PLAIN.fullmatch(text)
    if m is not None and len(text) <= MAX_LITERAL_DIGITS:
        num, den = m.groups()
        if den is None:
            return Fraction(int(num))
        if den.strip("0"):
            return Fraction(int(num), int(den))
    try:
        return frac(text)
    except InvalidParameters as e:
        raise ScenarioSyntaxError(str(e), line) from None


_PAIR = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")


def _points(text, line):
    """The profile through the (r, value) pairs that open text, and the
    text after the last pair.  Text before or between pairs is an error."""
    parts = _PAIR.split(text)
    if len(parts) == 1:
        raise ScenarioSyntaxError("expected (r, value) pairs", line)
    for gap in parts[:-1:3]:
        if gap.strip():
            raise ScenarioSyntaxError("not a (r, value) pair: %r"
                                      % gap.strip(), line)
    try:
        return Piecewise(tuple((_rational(a, line), _rational(b, line))
                               for a, b in zip(parts[1::3], parts[2::3]))
                         ), parts[-1]
    except InvalidParameters as e:
        raise ScenarioSyntaxError(str(e), line)


def _at_line(line, make, *args):
    """make(*args), an out-of-range value reported as an error at line.

    Every value a scenario gives the coefficient ring is read through it
    as _at_line(line, ring.coerce, value), so a value the ring does not
    hold, like 1/2 over z or z2, is an error at its line too.
    """
    try:
        return make(*args)
    except (InvalidParameters, NonUnitError) as e:
        raise ScenarioSemanticError(str(e), line) from None


_TERM = re.compile(
    r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?([A-Za-z_]\w*)\s*")


def parse_chain(text, ring, line=None):
    """A formal sum of arcs: `c1 + c2`, `2*c1 - c2`, `-c3`."""
    text = text.strip()
    if not text:
        raise ScenarioSyntaxError("empty chain", line)
    rep = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise ScenarioSyntaxError(
                "bad chain syntax near %r" % text[pos:pos + 12], line)
        sign, coeff, aid = m.groups()
        val = _rational(coeff, line) if coeff else Fraction(1)
        v = _at_line(line, ring.coerce, -val if sign == "-" else val)
        rep[aid] = rep.get(aid, 0) + v
        pos = m.end()
    rep = {k: ring.coerce(v) for k, v in rep.items()}
    return {k: v for k, v in rep.items() if v != ring.zero}


def read_class(text, line, ring, arc_ids):
    """The tracked chain of text (parse_chain); each of its arcs must be
    one of arc_ids.  [track] and the --class flag read it."""
    rep = parse_chain(text, ring, line)
    for aid in rep:
        if aid not in arc_ids:
            raise ScenarioSemanticError(
                "tracked class references unknown arc %r" % aid, line)
    return rep


# ---------------------------------------------------------------------------
# declared fields: one table states what each record may hold

def _name(text, line, *ctx):
    return text


def _cutoff(text, line):
    """A window cutoff: a constant, or a profile through (r, value) pairs."""
    if "(" not in text:
        return Piecewise.constant(_rational(text, line))
    pw, rest = _points(text, line)
    if rest.strip():
        raise ScenarioSyntaxError("not a (r, value) pair: %r" % rest.strip(),
                                  line)
    return pw


def _depth(text, line):
    depth = _rational(text, line)
    if depth.denominator != 1:
        raise ScenarioSemanticError("depth must be a whole number", line)
    return int(depth)


def _margin(text, line):
    """A tail margin kappa, which must be positive."""
    kappa = _rational(text, line)
    if kappa <= 0:
        raise ScenarioSemanticError("kappa must be positive", line)
    return kappa


def _numbers(text, line):
    """A parenthesized list of exact numbers; `()` is the empty list."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ScenarioSyntaxError("expected a list (q1, ...), got %r" % text,
                                  line)
    inner = text[1:-1]
    if not inner.strip():
        return ()
    return tuple(_rational(t, line) for t in inner.split(","))


def _pair(text, line):
    m = _PAIR.fullmatch(text)
    if not m:
        raise ScenarioSyntaxError("expected a pair (a, b), got %r" % text,
                                  line)
    return _rational(m.group(1), line), _rational(m.group(2), line)


_END_TAG = re.compile(r"^(boundary|birth\((\w+)\)|death\((\w+)\))$")


def _ends(text, line):
    """`lo,hi` end tags: a vertex tag, or None for `boundary`."""
    tokens = text.split(",")
    if len(tokens) != 2:
        raise ScenarioSyntaxError("ends= needs two tags", line)
    tags = []
    for token in tokens:
        m = _END_TAG.match(token.strip())
        if not m:
            raise ScenarioSyntaxError("bad end tag %r" % token.strip(), line)
        tags.append(BirthVertex(m.group(2)) if m.group(2) else
                    DeathVertex(m.group(3)) if m.group(3) else None)
    return tags


_GROWTH = {"linear": linear, "square": square, "iterlog": iterlog,
           "polylog": polylog}
_BOUND = re.compile(r"\s*(\w+)\s*\((.*)\)\s*")
_ITEM = re.compile(r",(?![^()]*\))")          # a comma outside parentheses


def parse_phi(text, line=None):
    """A growth bound `family(key=value, ...)`: the family's declared
    fields, given to its constructor in escape.  Examples: linear(c=2),
    iterlog(c=1, depth=2), polylog(c=1, p=-1, logs=(), gap=(-1, 1))."""
    m = _BOUND.fullmatch(text)
    if not m or m.group(1) not in _GROWTH:
        raise ScenarioSemanticError("unrecognized growth bound %r" % text,
                                    line)
    name, body = m.groups()
    parts = _ITEM.split(body) if body.strip() else []
    return _at_line(line, _GROWTH[name], *_read(
        name, [(line, t.strip()) for t in parts], line))


def _choice(options, what):
    """The reader of a case-insensitive name among options."""
    def read(text, line):
        try:
            return options[text.lower()]
        except KeyError:
            raise ScenarioSyntaxError("unknown %s %r" % (what, text),
                                      line) from None
    return read


# record kind -> {key: (reader, default)}.  A reader takes the value text,
# its line and the record's context; a field without a default is
# required.  docs/format.md gives the same keys in its grammar.
_FIELDS = {
    "[coefficients]": {"ring": (_choice(RINGS, "ring"),)},
    "[window]": {"a": (_cutoff,), "b": (_cutoff,)},
    "[track]": {"class": (read_class, None)},
    "[phi]": {"bound": (parse_phi, None), "kappa": (_margin, None),
              "rho0": (_rational, None)},
    "[rabinowitz]": {
        "h_sup": (_rational, Fraction(0)), "c": (_rational, Fraction(1)),
        "class": (_choice({"tame": Tame, "logtame": LogTame,
                           "squaretame": SquareTame}, "tameness class"),
                  Tame),
        "depth": (_depth, 1), "theta": (_rational, None),
        "eta_rate": (_rational, None), "rho0": (_rational, None),
        "kappa": (_margin, None)},
    "arc": {"ends": (_ends, None),
            "open": (_choice({"lo": (True, False), "hi": (False, True),
                              "both": (True, True)}, "open side"),
                     (False, False))},
    "vertex": {"r": (_rational,), "f3": (_rational,), "plus": (_name,),
               "minus": (_name,)},
    "slide": {"r": (_rational,)},
    "birth": {"r": (_rational,), "vertex": (_name,),
              "pivot": (_rational, Fraction(1))},
    "death": {"r": (_rational,), "vertex": (_name,)},
    "window": {"a": (_rational,), "b": (_rational,)},   # rungs, --window
    # growth bounds, in the order of their escape constructor's arguments;
    # gap=None gives the family's default interval
    "linear": {"c": (_rational,), "gap": (_pair, None)},
    "square": {"c": (_rational,), "gap": (_pair, None)},
    "iterlog": {"c": (_rational,), "depth": (_depth,), "gap": (_pair, None)},
    "polylog": {"c": (_rational,), "p": (_rational,), "logs": (_numbers, ()),
                "gap": (_pair, None)},
}


def _read(kind, items, line, *ctx):
    """The values of kind's declared fields, in table order.

    items are (line, `key=value` text) pairs, keys case-insensitive.  A
    text without `=`, an unknown or repeated key, and a missing required
    key (reported at line) raise ScenarioSyntaxError.
    """
    fields = _FIELDS[kind]
    given = {}
    for at, item in items:
        key, eq, text = item.partition("=")
        key = key.strip().lower()
        if not eq:
            raise ScenarioSyntaxError("%s: expected key=value, got %r"
                                      % (kind, item), at)
        if key not in fields:
            raise ScenarioSyntaxError("%s: unknown key %r" % (kind, key), at)
        if key in given:
            raise ScenarioSyntaxError("%s: key %r given twice" % (kind, key),
                                      at)
        given[key] = at, text.strip()
    out = []
    for key, field in fields.items():
        if key in given:
            at, text = given[key]
            out.append(field[0](text, at, *ctx))
        elif len(field) > 1:
            out.append(field[1])
        else:
            need = [k for k, field in fields.items() if len(field) == 1]
            raise ScenarioSyntaxError("%s needs %s; %s is missing"
                                      % (kind, " and ".join(need), key), line)
    return out


def _section(sections, name, *ctx):
    """_read on the key = value lines of a section, absent or not."""
    lines = sections.get(name, ())
    return _read("[%s]" % name, lines, lines[0][0] if lines else None, *ctx)


def parse_window_spec(text, line=None):
    """`a=0,b=10` with rational endpoints, as used by the --window flag."""
    return Window.constant(*_read(
        "window", [(line, t) for t in text.replace(" ", "").split(",")],
        line))


_HEADER = re.compile(r"\[(\w+)\]")


def _split_sections(text):
    current = None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _HEADER.fullmatch(stripped)
        if m:
            name = m.group(1).lower()
            if name not in _SECTIONS:
                raise ScenarioSyntaxError("unknown section [%s]" % name,
                                          lineno)
            if name in out:
                raise ScenarioSyntaxError("section [%s] repeated" % name,
                                          lineno)
            current = out.setdefault(name, [])
            continue
        if current is None:
            raise ScenarioSyntaxError(
                "content before the first [section] header", lineno)
        current.append((lineno, stripped))
    return out


def _parse_arcs(lines):
    arcs = {}
    for lineno, text in lines:
        aid, colon, rest = text.partition(":")
        if not colon:
            raise ScenarioSyntaxError("arc lines are `id : points ...`",
                                      lineno)
        aid = aid.strip()
        if aid in arcs:
            raise ScenarioSemanticError("arc %r declared twice" % aid, lineno)
        pw, rest = _points(rest, lineno)
        ends, (lo_open, hi_open) = _read(
            "arc", [(lineno, t) for t in rest.split()], lineno)
        # `boundary`, written or not: the boundary at the end's own side
        # when the footprint reaches it, else the other one
        lo, hi = ends or (None, None)
        lo = lo or (BoundaryAt0() if pw.r_lo == 0 else BoundaryAt1())
        hi = hi or (BoundaryAt1() if pw.r_hi == 1 else BoundaryAt0())
        arcs[aid] = Arc(aid, pw, lo, hi, lo_open=lo_open, hi_open=hi_open)
    return list(arcs.values())


def _parse_vertices(lines, arc_ids):
    verts = []
    for lineno, text in lines:
        vid, colon, rest = text.partition(":")
        if not colon:
            raise ScenarioSyntaxError(
                "vertex lines are `id : kind r=.. f3=.. plus=.. minus=..`",
                lineno)
        kind, *toks = rest.split() or [""]
        if kind not in ("birth", "death"):
            raise ScenarioSyntaxError("vertex kind must be birth or death",
                                      lineno)
        v = Vertex(vid.strip(), kind, *_read(
            "vertex", [(lineno, t) for t in toks], lineno))
        for aid in (v.plus_arc, v.minus_arc):
            if aid not in arc_ids:
                raise ScenarioSemanticError(
                    "vertex %r references unknown arc %r" % (v.id, aid),
                    lineno)
        verts.append(v)
    return verts


_ENTRY = re.compile(r"\(([^()]*)\)\s*=(.*)")


def _entries(items, arity, arc_ids, what, ring):
    """{arc ids: element of ring} of `(id, ..) = value` entries, each
    naming arity declared arcs; items are (line, text) pairs.  A
    repeated position is an error."""
    out = {}
    for line, text in items:
        m = _ENTRY.fullmatch(text.strip())
        ids = tuple(x.strip() for x in m.group(1).split(",")) if m else ()
        if len(ids) != arity or not all(ids):
            raise ScenarioSyntaxError("%s entries are `(%s) = value`"
                                      % (what, ", ".join(["arc"] * arity)),
                                      line)
        for x in ids:
            if x not in arc_ids:
                raise ScenarioSemanticError(
                    "%s references unknown arc %r" % (what, x), line)
        if ids in out:
            raise ScenarioSyntaxError("%s entry (%s) given twice"
                                      % (what, ", ".join(ids)), line)
        out[ids] = _at_line(line, ring.coerce, _rational(m.group(2), line))
    return out


def _parse_events(lines, arc_ids, vertex_ids, ring):
    events = []
    seen = set()
    for lineno, text in lines:
        head, colon, tail = text.partition(":")
        kind, *toks = head.split() or [""]
        if kind not in ("slide", "birth", "death"):
            raise ScenarioSyntaxError(
                "event kind must be slide, birth, or death", lineno)
        r, *fields = _read(kind, [(lineno, t) for t in toks], lineno)
        if not 0 < r < 1:
            raise ScenarioSemanticError(
                "event parameter r=%s must lie strictly inside (0, 1)" % r,
                lineno)
        if r in seen:
            raise ScenarioSemanticError(
                "events at r=%s and r=%s share a parameter; degenerate "
                "instants must be disjoint (pairwise distinct parameters)"
                % (r, r), lineno)
        seen.add(r)
        if kind == "death" and colon:
            raise ScenarioSyntaxError("a death takes no entries", lineno)
        # after a `:` every `;` part is an entry, so an empty one is an error
        entries = _entries([(lineno, part) for part in tail.split(";")]
                           if colon else (),
                           2 if kind == "slide" else 1, arc_ids, kind, ring)

        if kind == "slide":
            if not entries:
                raise ScenarioSyntaxError("slide needs at least one entry",
                                          lineno)
            events.append(EventRecord(r, HandleSlide(tuple(
                (up, low, val) for (up, low), val in entries.items()))))
            continue

        vertex = fields[0]
        if vertex not in vertex_ids:
            raise ScenarioSemanticError(
                "event references unknown vertex %r" % vertex, lineno)
        if kind == "death":
            events.append(EventRecord(r, Death(vertex)))
            continue
        column = tuple((aid, val) for (aid,), val in entries.items())
        pivot = _at_line(lineno, ring.coerce, fields[1])
        events.append(EventRecord(r, Birth(vertex, pivot, column)))
    return events


def parse_scenario(text, path="", ring=None):
    """Parse scenario text into assembled engine objects.

    Raises ScenarioSyntaxError for malformed text and
    ScenarioSemanticError for well-formed text that references unknown
    names or breaks the disjointness of event parameters, each carrying
    the offending line number.  A ring argument overrides the file's
    [coefficients] section.
    """
    sections = _split_sections(text)
    if not sections.get("arcs"):
        raise ScenarioSyntaxError("missing or empty [arcs] section")

    file_ring = (_section(sections, "coefficients")[0]
                 if "coefficients" in sections else Z2)
    ring = file_ring if ring is None else ring

    arcs = _parse_arcs(sections["arcs"])
    arc_ids = {a.id for a in arcs}
    vertices = _parse_vertices(sections.get("vertices", ()), arc_ids)
    family = CerfTuple(tuple(arcs), tuple(vertices))

    entries = _entries(sections.get("gamma", ()), 2, arc_ids, "gamma", ring)
    events = _parse_events(sections.get("events", ()), arc_ids,
                           {v.id for v in vertices}, ring)
    events.sort(key=lambda ev: ev.r)

    cut = events[0].r if events else Fraction(1)
    probe = cut / 2 if cut > 0 else Fraction(1, 2)
    ids = [a.id for a in family.arcs_alive(probe)]
    for (c1, c2) in entries:
        if c1 not in ids or c2 not in ids:
            raise ScenarioSemanticError(
                "gamma entry (%s, %s) references an arc not alive on the "
                "first interval" % (c1, c2))
    gamma0 = FlowCounter(0, Fraction(0), cut,
                         SparseMatrix(ring, ids, ids, entries))

    window = None
    if "window" in sections:
        window = Window(*_section(sections, "window"))

    ladder = []
    for lineno, text_line in sections.get("ladder", ()):
        head, colon, rest = text_line.partition(":")
        if head.strip() != "window" or not colon:
            raise ScenarioSyntaxError("[ladder] lines are `window : a=.. b=..`",
                                      lineno)
        ladder.append(Window.constant(*_read(
            "window", [(lineno, t) for t in rest.split()], lineno)))

    rep = _section(sections, "track", ring, arc_ids)[0]
    phi, kappa, rho0 = _section(sections, "phi")

    model = model_rho0 = model_kappa = None
    if "rabinowitz" in sections:
        (h_sup, c, tame, depth, theta, eta_rate, model_rho0,
         model_kappa) = _section(sections, "rabinowitz")
        # a value out of its range is reported at the section's first line
        lines = sections["rabinowitz"]
        line = lines[0][0] if lines else None
        variant = (HypersurfaceHomotopy() if theta is None else
                   _at_line(line, SymplecticFormHomotopy, theta, eta_rate))
        model = _at_line(line, HomotopyModel, h_sup, c,
                         tame(depth) if tame is LogTame else tame(), variant)

    return Scenario(ring, family, gamma0, tuple(events), window,
                    tuple(ladder), rep, phi, kappa, rho0,
                    model, model_rho0, model_kappa, path)


def load_scenario(path, ring=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), path=str(path), ring=ring)


# ---------------------------------------------------------------------------
# serialization (canonical form; round-trips through parse_scenario)

def _fmt_points(pw):
    return " ".join("(%s, %s)" % (r, v) for r, v in pw.points)


def phi_text(phi):
    """The text parse_phi reads back as phi: every field of its family."""
    values = {"c": phi.coefficient, "p": phi.power,
              "depth": len(phi.log_powers),
              "logs": "(%s)" % ",".join(map(str, phi.log_powers)),
              "gap": "(%s, %s)" % phi.gap}
    return "%s(%s)" % (phi.label, ", ".join(
        "%s=%s" % (key, values[key]) for key in _FIELDS[phi.label]))


def _fmt_section(name, *values):
    """A [name] section: `key = value` for each declared field, in table
    order, whose value is not None; nothing when every value is None."""
    lines = ["%s = %s" % kv for kv in zip(_FIELDS["[%s]" % name], values)
             if kv[1] is not None]
    return ["[%s]" % name] + lines + [""] if lines else []


def serialize_scenario(sc):
    out = _fmt_section("coefficients", sc.ring.name.lower())
    out.append("[arcs]")
    for a in sc.family.arcs:
        line = "%s : %s" % (a.id, _fmt_points(a.f3))
        tags = (a.lo_tag, a.hi_tag)
        if not all(isinstance(t, (BoundaryAt0, BoundaryAt1)) for t in tags):
            line += " ends=%s,%s" % tuple(
                t if isinstance(t, (BirthVertex, DeathVertex)) else "boundary"
                for t in tags)
        if a.lo_open or a.hi_open:
            line += " open=%s" % ("both" if a.lo_open and a.hi_open
                                  else ("lo" if a.lo_open else "hi"))
        out.append(line)
    out.append("")
    if sc.family.vertices:
        out.append("[vertices]")
        for v in sc.family.vertices:
            out.append("%s : %s r=%s f3=%s plus=%s minus=%s"
                       % (v.id, v.kind, v.r, v.f3, v.plus_arc, v.minus_arc))
        out.append("")
    if sc.gamma0.gamma.entries:
        out.append("[gamma]")
        for (c1, c2) in sorted(sc.gamma0.gamma.entries, key=str):
            out.append("(%s, %s) = %s"
                       % (c1, c2, sc.gamma0.gamma.entries[(c1, c2)]))
        out.append("")
    if sc.events:
        out.append("[events]")
        for ev in sc.events:
            p = ev.payload
            if isinstance(p, HandleSlide):
                body = "; ".join("(%s, %s) = %s" % d for d in p.delta)
                out.append("slide r=%s : %s" % (ev.r, body))
            elif isinstance(p, Birth):
                line = "birth r=%s vertex=%s pivot=%s" % (ev.r, p.vertex,
                                                          p.pivot)
                if p.new_column:
                    line += " : " + "; ".join("(%s) = %s" % e
                                              for e in p.new_column)
                out.append(line)
            else:
                out.append("death r=%s vertex=%s" % (ev.r, p.vertex))
        out.append("")
    if sc.window is not None:
        out += _fmt_section("window", *(
            side.points[0][1] if len({v for _, v in side.points}) == 1
            else _fmt_points(side) for side in (sc.window.a, sc.window.b)))
    if sc.ladder:
        out.append("[ladder]")
        for w in sc.ladder:
            out.append("window : a=%s b=%s" % (w.a.points[0][1],
                                               w.b.points[0][1]))
        out.append("")
    if sc.rep is not None:
        terms = []
        for aid in sorted(sc.rep, key=str):
            text = str(sc.rep[aid])
            neg = text.startswith("-")
            mag = text[1:] if neg else text
            term = aid if mag == "1" else "%s*%s" % (mag, aid)
            if not terms:
                terms.append(("-" if neg else "") + term)
            else:
                terms.append(("- " if neg else "+ ") + term)
        out += _fmt_section("track", " ".join(terms))
    out += _fmt_section("phi", None if sc.phi is None else phi_text(sc.phi),
                        sc.kappa, sc.rho0)
    m = sc.model
    if m is not None:
        form = isinstance(m.variant, SymplecticFormHomotopy)
        out += _fmt_section(
            "rabinowitz", m.h_sup, m.tame_constant,
            type(m.tame_class).__name__.lower(),
            m.tame_class.depth if isinstance(m.tame_class, LogTame) else None,
            m.variant.theta if form else None,
            m.variant.eta_rate if form else None, sc.model_rho0,
            sc.model_kappa)
    return "\n".join(out).rstrip() + "\n"

