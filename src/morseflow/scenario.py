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

Components are inferred: arcs sharing a vertex belong to one component,
and a component whose free ends are all vertices is a loop.  `#` starts
a comment; blank lines separate nothing.  Parse errors carry the line
number.  The [phi] and [rabinowitz] sections configure the growth-bound
commands; see docs/format.md for the complete grammar.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .bifurcation import (Birth, Death, EventRecord, FlowCounter,
                          HandleSlide)
from .cerf import (Arc, BirthVertex, BoundaryAt0, BoundaryAt1, CerfTuple,
                   Component, DeathVertex, Vertex)
from .errors import (InvalidParameters, ScenarioSemanticError,
                     ScenarioSyntaxError, check_literal)
from .escape import parse_phi
from .matrix import SparseMatrix
from .piecewise import Piecewise
from .rabinowitz import (HomotopyModel, HypersurfaceHomotopy, LogTame,
                         SquareTame, SymplecticFormHomotopy, Tame)
from .rings import RINGS, Z2
from .tracker import Window

_SECTIONS = ("coefficients", "arcs", "vertices", "gamma", "events",
             "window", "ladder", "track", "phi", "rabinowitz")


@dataclass
class Scenario:
    ring: object
    family: CerfTuple
    gamma0: FlowCounter
    events: tuple
    window: object = None          # Window or None
    ladder: tuple = ()
    rep: object = None             # {arc id: ring value} or None
    label: str = "h"
    phi: object = None             # GrowthBound or None
    kappa: object = None
    rho0: object = None
    model: object = None           # HomotopyModel or None
    model_rho0: object = None
    model_kappa: object = None
    path: str = ""


def _rational(text, line):
    """An exact number, its size checked before Fraction reads it."""
    check_literal(text, line)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ScenarioSyntaxError("not an exact number: %r" % text.strip(),
                                  line)


_PAIR = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")


def _piecewise(text, line):
    """The profile through the (r, value) pairs of text."""
    pts = _PAIR.findall(text)
    if not pts:
        raise ScenarioSyntaxError("expected (r, value) pairs", line)
    try:
        return Piecewise(tuple((_rational(a, line), _rational(b, line))
                               for a, b in pts))
    except ValueError as e:
        raise ScenarioSyntaxError(str(e), line)


def _kwargs(tokens, line):
    """{key: value} from key=value tokens; a repeated key is an error."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioSyntaxError("expected key=value, got %r" % tok, line)
        k, v = tok.split("=", 1)
        if k in out:
            raise ScenarioSyntaxError("key %r given twice" % k, line)
        out[k] = v
    return out


def _at_line(line, make, *args):
    """make(*args), an out-of-range value reported as an error at line."""
    try:
        return make(*args)
    except InvalidParameters as e:
        raise ScenarioSemanticError(str(e), line) from None
    except ScenarioSyntaxError as e:
        if e.line is not None:
            raise
        raise ScenarioSyntaxError(str(e), line) from None


_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?([A-Za-z_]\w*)")


def parse_chain(text, ring, line=None):
    """A formal sum of arcs: `c1 + c2`, `2*c1 - c2`, `-c3`."""
    text = text.strip()
    if not text:
        raise ScenarioSyntaxError("empty chain", line)
    rep = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (not first and not m.group(1)):
            raise ScenarioSyntaxError(
                "bad chain syntax near %r" % text[pos:pos + 12], line)
        sign, coeff, aid = m.groups()
        val = _rational(coeff, line) if coeff else Fraction(1)
        if sign == "-":
            val = -val
        v = ring.coerce(val)
        rep[aid] = ring.add(rep.get(aid, ring.zero), v)
        pos = m.end()
        first = False
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos != len(text):
        raise ScenarioSyntaxError("unparsed chain text: %r" % text[pos:],
                                  line)
    return {k: v for k, v in rep.items() if v != ring.zero}


def parse_window_spec(text, line=None):
    """`a=0,b=10` with rational endpoints, as used by the --window flag."""
    kv = _kwargs(text.replace(" ", "").split(","), line)
    if set(kv) != {"a", "b"}:
        raise ScenarioSyntaxError("window spec needs a=<lo>,b=<hi>", line)
    return Window.constant(_rational(kv["a"], line), _rational(kv["b"], line))


# ---------------------------------------------------------------------------
# section readers

def _split_sections(text):
    current = None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        m = re.match(r"^\[(\w+)\]\s*$", stripped.strip())
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
        current.append((lineno, stripped.strip()))
    return out


def _keyvals(lines, section):
    out = {}
    for lineno, text in lines:
        if "=" not in text:
            raise ScenarioSyntaxError(
                "[%s] lines are key = value" % section, lineno)
        k, v = text.split("=", 1)
        out[k.strip().lower()] = (lineno, v.strip())
    return out


_END_TAG = re.compile(r"^(boundary|birth\((\w+)\)|death\((\w+)\))$")


def _end_tag(token, which, footprint_end, line):
    token = token.strip()
    m = _END_TAG.match(token)
    if not m:
        raise ScenarioSyntaxError("bad end tag %r" % token, line)
    if m.group(2):
        return BirthVertex(m.group(2))
    if m.group(3):
        return DeathVertex(m.group(3))
    return BoundaryAt0() if footprint_end == 0 else BoundaryAt1()


def _parse_arcs(lines):
    arcs = {}
    for lineno, text in lines:
        if ":" not in text:
            raise ScenarioSyntaxError("arc lines are `id : points ...`",
                                      lineno)
        aid, rest = text.split(":", 1)
        aid = aid.strip()
        opts = {}
        for key in ("ends", "open"):
            m = re.search(r"\b%s\s*=\s*(\S+)" % key, rest)
            if m:
                opts[key] = m.group(1)
                rest = rest[:m.start()] + rest[m.end():]
        if aid in arcs:
            raise ScenarioSemanticError("arc %r declared twice" % aid, lineno)
        pw = _piecewise(rest, lineno)
        if "ends" in opts:
            toks = opts["ends"].split(",")
            if len(toks) != 2:
                raise ScenarioSyntaxError("ends= needs two tags", lineno)
            lo = _end_tag(toks[0], "lo", pw.r_lo, lineno)
            hi = _end_tag(toks[1], "hi", pw.r_hi, lineno)
        else:
            lo = BoundaryAt0() if pw.r_lo == 0 else BoundaryAt1()
            hi = BoundaryAt1() if pw.r_hi == 1 else BoundaryAt0()
        open_req = opts.get("open", "")
        arcs[aid] = Arc(aid, pw, lo, hi,
                        lo_open=open_req in ("lo", "both"),
                        hi_open=open_req in ("hi", "both"))
    return list(arcs.values())


def _parse_vertices(lines):
    verts = []
    for lineno, text in lines:
        if ":" not in text:
            raise ScenarioSyntaxError(
                "vertex lines are `id : kind r=.. f3=.. plus=.. minus=..`",
                lineno)
        vid, rest = text.split(":", 1)
        toks = rest.split()
        if not toks or toks[0] not in ("birth", "death"):
            raise ScenarioSyntaxError("vertex kind must be birth or death",
                                      lineno)
        kv = _kwargs(toks[1:], lineno)
        missing = {"r", "f3", "plus", "minus"} - set(kv)
        if missing:
            raise ScenarioSyntaxError(
                "vertex missing %s" % ", ".join(sorted(missing)), lineno)
        verts.append(Vertex(vid.strip(), toks[0],
                            _rational(kv["r"], lineno),
                            _rational(kv["f3"], lineno),
                            kv["plus"], kv["minus"]))
    return verts


def _parse_gamma(lines, arc_ids, ring):
    entries = {}
    for lineno, text in lines:
        if "=" not in text:
            raise ScenarioSyntaxError("gamma lines are `(c1, c2) = value`",
                                      lineno)
        lhs, rhs = text.split("=", 1)
        m = _PAIR.match(lhs.strip())
        if not m or not lhs.strip() == m.group(0):
            raise ScenarioSyntaxError("gamma lines are `(c1, c2) = value`",
                                      lineno)
        c1, c2 = m.group(1).strip(), m.group(2).strip()
        for c in (c1, c2):
            if c not in arc_ids:
                raise ScenarioSemanticError("unknown arc %r in gamma" % c,
                                            lineno)
        entries[(c1, c2)] = ring.coerce(_rational(rhs, lineno))
    return entries


def _parse_events(lines, arc_ids, vertex_ids, ring):
    events = []
    seen = {}
    for lineno, text in lines:
        head, _, tail = text.partition(":")
        toks = head.split()
        kind = toks[0] if toks else ""
        if kind not in ("slide", "birth", "death"):
            raise ScenarioSyntaxError(
                "event kind must be slide, birth, or death", lineno)
        kv = _kwargs(toks[1:], lineno)
        if "r" not in kv:
            raise ScenarioSyntaxError("event missing r=", lineno)
        r = _rational(kv["r"], lineno)
        if not 0 < r < 1:
            raise ScenarioSemanticError(
                "event parameter r=%s must lie strictly inside (0, 1)" % r,
                lineno)
        if r in seen:
            raise ScenarioSemanticError(
                "events at r=%s and r=%s share a parameter; degenerate "
                "instants must be disjoint (pairwise distinct parameters)"
                % (r, r), lineno)
        seen[r] = lineno

        pairs = []
        if tail.strip():
            for part in tail.split(";"):
                part = part.strip()
                if not part:
                    continue
                if "=" not in part:
                    raise ScenarioSyntaxError(
                        "event entries are `(..) = value`", lineno)
                lhs, rhs = part.split("=", 1)
                ids = [x.strip() for x in
                       lhs.strip().lstrip("(").rstrip(")").split(",")
                       if x.strip()]
                for x in ids:
                    if x not in arc_ids:
                        raise ScenarioSemanticError(
                            "event references unknown arc %r" % x, lineno)
                pairs.append((ids, _rational(rhs, lineno)))

        if kind == "slide":
            delta = []
            for ids, val in pairs:
                if len(ids) != 2:
                    raise ScenarioSyntaxError(
                        "slide entries are `(upper, lower) = value`", lineno)
                delta.append((ids[0], ids[1], ring.coerce(val)))
            if not delta:
                raise ScenarioSyntaxError("slide needs at least one entry",
                                          lineno)
            events.append(EventRecord(r, HandleSlide(tuple(delta))))
            continue

        if "vertex" not in kv:
            raise ScenarioSyntaxError("%s missing vertex=" % kind, lineno)
        if kv["vertex"] not in vertex_ids:
            raise ScenarioSemanticError(
                "event references unknown vertex %r" % kv["vertex"], lineno)
        if kind == "death":
            events.append(EventRecord(r, Death(kv["vertex"])))
            continue
        column = []
        for ids, val in pairs:
            if len(ids) != 1:
                raise ScenarioSyntaxError(
                    "birth entries are `(arc) = value`", lineno)
            column.append((ids[0], ring.coerce(val)))
        events.append(EventRecord(
            r, Birth(kv["vertex"],
                     ring.coerce(_rational(kv.get("pivot", "1"), lineno)),
                     tuple(column))))
    return events


def _parse_window_section(lines, section):
    kv = _keyvals(lines, section)
    if set(kv) != {"a", "b"}:
        raise ScenarioSyntaxError(
            "[%s] needs exactly the keys a and b" % section,
            lines[0][0] if lines else None)
    sides = []
    for key in ("a", "b"):
        lineno, text = kv[key]
        if "(" in text:
            sides.append(_piecewise(text, lineno))
        else:
            sides.append(Piecewise.constant(_rational(text, lineno)))
    return Window(sides[0], sides[1])


def _infer_components(arcs, vertices):
    """Group arcs sharing a vertex; all-vertex ends make a loop.

    Each component lists its arcs as a chain along shared vertices: a
    chord from its first arc (in file order) with a boundary end, a loop
    from its first arc, each step to the earliest unvisited neighbour.
    Arcs the walk does not reach follow in file order.
    """
    parent = {a.id: a.id for a in arcs}
    nbrs = {a.id: [] for a in arcs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in vertices:
        if v.plus_arc in parent and v.minus_arc in parent:
            parent[find(v.plus_arc)] = find(v.minus_arc)
            nbrs[v.plus_arc].append(v.minus_arc)
            nbrs[v.minus_arc].append(v.plus_arc)
    groups = {}
    for a in arcs:
        groups.setdefault(find(a.id), []).append(a)
    comps = []
    for members in groups.values():
        rank = {a.id: i for i, a in enumerate(members)}
        chord = [a.id for a in members if any(
            isinstance(tag, (BoundaryAt0, BoundaryAt1))
            for tag in (a.lo_tag, a.hi_tag))]
        walk = [chord[0] if chord else members[0].id]
        seen = set(walk)
        while True:
            step = [b for b in nbrs[walk[-1]] if b not in seen]
            if not step:
                break
            walk.append(min(step, key=rank.get))
            seen.add(walk[-1])
        walk += [a.id for a in members if a.id not in seen]
        comps.append((members[0].id,
                      Component("chord" if chord else "loop", tuple(walk))))
    return tuple(c for _, c in sorted(comps))


def _parse_rabinowitz(lines):
    kv = _keyvals(lines, "rabinowitz")

    def take(key, default=None):
        if key not in kv:
            return None if default is None else default
        lineno, text = kv[key]
        return _rational(text, lineno)

    cls_name = kv.get("class", (None, "tame"))[1].lower()
    if cls_name == "tame":
        cls = Tame()
    elif cls_name == "logtame":
        depth = take("depth", Fraction(1))
        if depth.denominator != 1:
            raise ScenarioSemanticError("log-tame depth must be a whole "
                                        "number", kv["depth"][0])
        cls = LogTame(int(depth))
    elif cls_name == "squaretame":
        cls = SquareTame()
    else:
        raise ScenarioSyntaxError("unknown tameness class %r" % cls_name,
                                  kv["class"][0])
    # a value out of its range is reported at the section's first line
    line = lines[0][0] if lines else None
    if "theta" in kv:
        variant = _at_line(line, SymplecticFormHomotopy, take("theta"),
                           take("eta_rate"))
    else:
        variant = HypersurfaceHomotopy()
    model = _at_line(line, HomotopyModel, take("h_sup", Fraction(0)),
                     take("c", Fraction(1)), cls, variant)
    return model, take("rho0"), take("kappa")


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

    override = ring
    ring = Z2
    if "coefficients" in sections:
        kv = _keyvals(sections["coefficients"], "coefficients")
        if "ring" not in kv:
            raise ScenarioSyntaxError("[coefficients] needs ring = z2|z|q",
                                      sections["coefficients"][0][0])
        lineno, name = kv["ring"]
        if name.lower() not in RINGS:
            raise ScenarioSyntaxError("unknown ring %r" % name, lineno)
        ring = RINGS[name.lower()]
    if override is not None:
        ring = override

    arcs = _parse_arcs(sections["arcs"])
    arc_ids = {a.id for a in arcs}
    vertices = _parse_vertices(sections.get("vertices", ()))
    for v in vertices:
        for aid in (v.plus_arc, v.minus_arc):
            if aid not in arc_ids:
                raise ScenarioSemanticError(
                    "vertex %r references unknown arc %r" % (v.id, aid))
    family = CerfTuple(tuple(arcs), _infer_components(arcs, vertices),
                       tuple(vertices))

    entries = _parse_gamma(sections.get("gamma", ()), arc_ids, ring)
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
        window = _parse_window_section(sections["window"], "window")

    ladder = []
    for lineno, text_line in sections.get("ladder", ()):
        head, colon, rest = text_line.partition(":")
        if head.strip() != "window" or not colon:
            raise ScenarioSyntaxError("[ladder] lines are `window : a=.. b=..`",
                                      lineno)
        kv = _kwargs(rest.split(), lineno)
        if set(kv) != {"a", "b"}:
            raise ScenarioSyntaxError("ladder window needs a= and b=", lineno)
        ladder.append(Window.constant(_rational(kv["a"], lineno),
                                      _rational(kv["b"], lineno)))

    rep = None
    label = "h"
    if "track" in sections:
        kv = _keyvals(sections["track"], "track")
        if "class" in kv:
            lineno, text_line = kv["class"]
            rep = parse_chain(text_line, ring, lineno)
            for aid in rep:
                if aid not in arc_ids:
                    raise ScenarioSemanticError(
                        "tracked class references unknown arc %r" % aid,
                        lineno)
        if "label" in kv:
            label = kv["label"][1]

    phi = kappa = rho0 = None
    if "phi" in sections:
        kv = _keyvals(sections["phi"], "phi")
        if "bound" in kv:
            phi = _at_line(kv["bound"][0], parse_phi, kv["bound"][1])
        if "kappa" in kv:
            kappa = _rational(kv["kappa"][1], kv["kappa"][0])
        if "rho0" in kv:
            rho0 = _rational(kv["rho0"][1], kv["rho0"][0])

    model = model_rho0 = model_kappa = None
    if "rabinowitz" in sections:
        model, model_rho0, model_kappa = _parse_rabinowitz(
            sections["rabinowitz"])

    return Scenario(ring, family, gamma0, tuple(events), window,
                    tuple(ladder), rep, label, phi, kappa, rho0,
                    model, model_rho0, model_kappa, path)


def load_scenario(path, ring=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), path=str(path), ring=ring)


# ---------------------------------------------------------------------------
# serialization (canonical form; round-trips through parse_scenario)

def _fmt_points(pw):
    return " ".join("(%s, %s)" % (r, v) for r, v in pw.points)


def _fmt_tag(tag):
    if isinstance(tag, BirthVertex):
        return "birth(%s)" % tag.vertex
    if isinstance(tag, DeathVertex):
        return "death(%s)" % tag.vertex
    return "boundary"


def serialize_scenario(sc):
    out = ["[coefficients]", "ring = %s" % sc.ring.name.lower(), ""]
    out.append("[arcs]")
    for a in sc.family.arcs:
        line = "%s : %s" % (a.id, _fmt_points(a.f3))
        tags = (a.lo_tag, a.hi_tag)
        if not all(isinstance(t, (BoundaryAt0, BoundaryAt1)) for t in tags):
            line += " ends=%s,%s" % (_fmt_tag(a.lo_tag), _fmt_tag(a.hi_tag))
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
        out.append("[window]")
        for key, side in (("a", sc.window.a), ("b", sc.window.b)):
            vals = {v for _, v in side.points}
            if len(vals) == 1:
                out.append("%s = %s" % (key, side.points[0][1]))
            else:
                out.append("%s = %s" % (key, _fmt_points(side)))
        out.append("")
    if sc.ladder:
        out.append("[ladder]")
        for w in sc.ladder:
            out.append("window : a=%s b=%s" % (w.a.points[0][1],
                                               w.b.points[0][1]))
        out.append("")
    if sc.rep is not None:
        out.append("[track]")
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
        out.append("class = %s" % " ".join(terms))
        if sc.label != "h":
            out.append("label = %s" % sc.label)
        out.append("")
    if sc.phi is not None or sc.kappa is not None or sc.rho0 is not None:
        out.append("[phi]")
        if sc.phi is not None:
            out.append("bound = %s" % _phi_text(sc.phi))
        if sc.kappa is not None:
            out.append("kappa = %s" % sc.kappa)
        if sc.rho0 is not None:
            out.append("rho0 = %s" % sc.rho0)
        out.append("")
    if sc.model is not None:
        out.append("[rabinowitz]")
        m = sc.model
        out.append("h_sup = %s" % m.h_sup)
        out.append("c = %s" % m.tame_constant)
        cls = type(m.tame_class).__name__.lower()
        out.append("class = %s" % cls)
        if cls == "logtame":
            out.append("depth = %d" % m.tame_class.depth)
        if isinstance(m.variant, SymplecticFormHomotopy):
            out.append("theta = %s" % m.variant.theta)
            if m.variant.eta_rate is not None:
                out.append("eta_rate = %s" % m.variant.eta_rate)
        if sc.model_rho0 is not None:
            out.append("rho0 = %s" % sc.model_rho0)
        if sc.model_kappa is not None:
            out.append("kappa = %s" % sc.model_kappa)
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _phi_text(phi):
    gap = "gap=(%s, %s)" % phi.gap
    if phi.label == "linear":
        return "linear(c=%s, %s)" % (phi.coefficient, gap)
    if phi.label == "square":
        return "square(c=%s, %s)" % (phi.coefficient, gap)
    if phi.label == "iterlog":
        return "iterlog(c=%s, depth=%d, %s)" % (phi.coefficient,
                                                len(phi.log_powers), gap)
    logs = ",".join(str(q) for q in phi.log_powers)
    return "polylog(c=%s, p=%s, logs=(%s), %s)" % (phi.coefficient,
                                                   phi.power, logs, gap)
