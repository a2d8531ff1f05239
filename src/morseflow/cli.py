"""Command-line surface: scenario ingestion, reports, diagrams.

Exit codes tell CI where a problem was detected:

    1  scenario parsing or file I/O
    2  structural validation of the family or a window
    3  axiom violation while evolving the count matrix
    4  downstream computation (budgets, classification, tracking)

An error's code is its class's exit_code (errors.py); file I/O is the
one failure outside that taxonomy.

All text and SVG output is deterministic: exact rationals printed as
fractions, sorted iteration, fixed geometry, no timestamps.
"""

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .algebra import homology
from .bifurcation import HandleSlide, evolve, validate_axioms
from .cerf import validate_cerf
from .diagrams import family_svg, trace_svg
from .errors import (MAX_LITERAL_DIGITS, AxiomViolation, InvalidParameters,
                     InvalidTuple, MorseflowError, NonUnitError,
                     ScenarioError, ScenarioSemanticError)
from .escape import build_cascade, check_H1, check_H2, escape_budget, linear
from .rabinowitz import ClassSurvives, Inconclusive, classify_invariance
from .rings import RINGS, Z2
from .scenario import (Scenario, _rational, load_scenario, parse_phi,
                       parse_window_spec, phi_text, read_class,
                       serialize_scenario)
from .tracker import filtered_homology, full_homology, track_class, wide_window

HEADER = "# morseflow " + __version__


class RunArtifacts(NamedTuple):
    reports: tuple               # (filename, text) pairs in emission order
    files: tuple = ()            # paths written when an output dir was given
    exit_code: int = 0


def data_path(name):
    """Path of a bundled scenario, by basename with or without .scn."""
    base = os.path.join(os.path.dirname(__file__), "data")
    for cand in (name, name + ".scn"):
        p = os.path.join(base, cand)
        if os.path.isfile(p):
            return p
    raise OSError("no scenario file or bundled scenario named %r" % name)


def _load(arg, flags):
    if arg is None:
        raise ScenarioError("this command needs a scenario argument")
    path = arg if os.path.isfile(arg) else data_path(arg)
    ring = RINGS[flags.coeff] if getattr(flags, "coeff", None) else None
    return load_scenario(path, ring=ring)


def _findings_block(title, findings, ok):
    lines = ["[%s]" % title]
    for f in findings:
        lines.append("%-5s %s: %s" % (f.severity, f.code, f.message))
    lines.append("result: %s" % ("ok" if ok else "invalid"))
    return lines


def _flag(flags, name, read, default=None):
    """read applied to the text of --name, or default when the flag is
    not given; read's errors name the flag."""
    text = getattr(flags, name, None)
    if text is None:
        return default
    try:
        return read(text)
    except (ScenarioError, InvalidParameters) as e:
        raise ScenarioError("--%s: %s" % (name, e)) from None


def _torsion_text(h):
    return ",".join(str(d) for d in h.torsion) or "-"


# ---------------------------------------------------------------------------
# commands; each returns (reports, exit_code)

def _cerf_lines(sc):
    """(ok, report lines) of validate_cerf on the scenario's family."""
    slides = tuple(e.r for e in sc.events if isinstance(e.payload, HandleSlide))
    rep = validate_cerf(sc.family, event_params=slides)
    lines = [HEADER, "scenario: %s" % os.path.basename(sc.path)]
    return rep.ok, lines + _findings_block("cerf", rep.findings, rep.ok)


def _valid_family(cmd):
    """cmd(sc, flags) run on the loaded scenario once its family passes
    validate_cerf; otherwise the [cerf] findings, exiting as InvalidTuple."""
    def checked(arg, flags):
        sc = _load(arg, flags)
        ok, lines = _cerf_lines(sc)
        if not ok:
            return ([("validation.txt", "\n".join(lines) + "\n")],
                    InvalidTuple.exit_code)
        return cmd(sc, flags)
    return checked


def _cmd_validate(arg, flags):
    sc = _load(arg, flags)
    ok, lines = _cerf_lines(sc)
    code = 0 if ok else InvalidTuple.exit_code
    if ok:
        ax = validate_axioms(sc.gamma0, sc.events, sc.family)
        lines += _findings_block("axioms", ax.findings, ax.ok)
        if not ax.ok:
            code = AxiomViolation.exit_code
    else:
        lines += ["[axioms]", "skipped: family is structurally invalid"]
    return [("validation.txt", "\n".join(lines) + "\n")], code


def _cmd_evolve(sc, flags):
    log = evolve(sc.gamma0, sc.events, sc.family)
    lines = [HEADER, "ring: %s" % log.ring.name]
    for fc in log.intervals:
        lines.append("")
        lines.append("interval %d: (%s, %s)" % (fc.interval_index, fc.r_lo, fc.r_hi))
        lines.append("  generators: %s" % (" ".join(fc.generators) or "-"))
        for (c1, c2), v in fc.gamma.items():
            lines.append("  (%s, %s) = %s" % (c1, c2, v))
    lines.append("")
    for st in log.steps:
        lines.append("event r=%s: %s" % (st.record.r, st.record.kind))
    return [("evolution.txt", "\n".join(lines) + "\n")], 0


def _cmd_homology(sc, flags):
    log = evolve(sc.gamma0, sc.events, sc.family)
    w = _flag(flags, "window", parse_window_spec,
              sc.window or wide_window(sc.family))
    lines = [HEADER, "ring: %s" % log.ring.name, "",
             "interval\tspan\trank\ttorsion\twindowed"]
    for fc in log.intervals:
        h = homology(fc.gamma)
        hw = filtered_homology(sc.family, fc, fc.midpoint(), w)
        lines.append("%d\t(%s, %s)\t%d\t%s\t%d %s" %
                     (fc.interval_index, fc.r_lo, fc.r_hi, h.free_rank,
                      _torsion_text(h), hw.free_rank, _torsion_text(hw)))
    if sc.ladder:
        rep = full_homology(sc.family, log, log.intervals[0].midpoint(), sc.ladder)
        lines += ["", "[ladder]", rep.message]
        for i, (h, leg) in enumerate(zip(rep.results, rep.legs + (None,))):
            lines.append("window %d: rank %d torsion %s" %
                         (i, h.free_rank, _torsion_text(h)))
            if leg is not None:
                lines.append("  leg: proj rank %d (%s), incl rank %d (%s)" %
                             (leg.proj_rank, "iso" if leg.proj_iso else "not iso",
                              leg.incl_rank, "iso" if leg.incl_iso else "not iso"))
    return [("homology.txt", "\n".join(lines) + "\n")], 0


def _trace(sc, flags):
    """The trace of the tracked class, --class or else the file's
    [track] class, or None when neither gives one."""
    arc_ids = {a.id for a in sc.family.arcs}
    rep = _flag(flags, "class",
                lambda text: read_class(text, None, sc.ring, arc_ids), sc.rep)
    if rep is None:
        return None
    log = evolve(sc.gamma0, sc.events, sc.family)
    w = _flag(flags, "window", parse_window_spec,
              sc.window or wide_window(sc.family))
    return track_class(rep, log, w)


def _cmd_track(sc, flags):
    trace = _trace(sc, flags)
    if trace is None:
        raise ScenarioSemanticError(
            "tracking needs a class: give --class or a [track] section")
    text = "\n".join([HEADER, trace.table(),
                      "final: %s" % trace.final_value()]) + "\n"
    return [("trace.txt", text)], 0


def _cmd_escape(sc, flags):
    phi = _flag(flags, "phi", parse_phi, sc.phi)
    if phi is None:
        raise ScenarioSemanticError(
            "escape analysis needs a growth bound: give --phi or a [phi] section")
    lines = [HEADER, "bound: %s" % phi_text(phi)]
    h1 = check_H1(phi, sc.family)
    lines += _findings_block("H1", h1.findings, h1.ok)
    if sc.kappa is not None and sc.rho0 is not None:
        h2 = check_H2(phi, sc.kappa, sc.rho0)
        lines += ["[H2]",
                  "upper: threshold %s integral %s" % (h2.upper_threshold,
                                                       h2.upper_integral),
                  "lower: threshold %s integral %s" % (h2.lower_threshold,
                                                       h2.lower_integral),
                  "required: %s" % h2.required,
                  "margin: %s" % h2.margin,
                  "result: %s" % ("ok" if h2.ok else "insufficient")]
    trace = _trace(sc, flags)
    if trace is not None:
        budget = escape_budget(trace, phi)
        lines.append("[budget]")
        heights = budget.heights
        flat = 0
        for i, (cost, (x, y)) in enumerate(zip(budget.step_costs,
                                               zip(heights, heights[1:]))):
            if x == y:
                flat += 1
                continue
            lines.append("step %d: %s -> %s costs %s" % (i, x, y, cost))
        lines += ["flat steps: %d" % flat,
                  "total: %s" % budget.total,
                  "verdict: %s" % budget.verdict,
                  "escape to infinity costs +inf: %s" % budget.escape_cost_infinite]
    return [("escape.txt", "\n".join(lines) + "\n")], 0


# the most stages `cascade --n` builds; its heights base * ratio^k must
# also fit in a numeric literal, so that the file it writes re-parses
MAX_CASCADE_STAGES = 300


def _cmd_cascade(arg, flags):
    if flags.n is None:
        raise ScenarioError("cascade needs --n")
    if flags.n > MAX_CASCADE_STAGES:
        raise ScenarioError("cascade --n is at most %d" % MAX_CASCADE_STAGES)
    ring = RINGS[flags.coeff] if flags.coeff else Z2
    base, ratio, delta = (_flag(flags, name, lambda text: _rational(text, None))
                          for name in ("base", "ratio", "delta"))
    top = base * ratio ** flags.n if ratio > 1 and flags.n > 0 else base
    if max(abs(top.numerator), top.denominator) >= 10 ** MAX_LITERAL_DIGITS:
        raise ScenarioError("cascade height base * ratio^n longer than %d "
                            "digits" % MAX_LITERAL_DIGITS)
    try:
        t, gamma0, events = build_cascade(flags.n, base=base, ratio=ratio,
                                          delta_value=delta, ring=ring)
    except (InvalidParameters, NonUnitError) as e:
        raise ScenarioError("cascade: %s" % e) from None
    sc = Scenario(ring, t, gamma0, tuple(events), window=wide_window(t),
                  rep={"c1": ring.one},
                  phi=linear(Fraction(1), gap=(-ratio, ratio)))
    name = "cascade%d.scn" % flags.n
    return [(name, serialize_scenario(sc))], 0


def _cmd_rabinowitz(arg, flags):
    """The model and its verdict; every verdict class carries phi, None
    when nothing moves."""
    sc = _load(arg, flags)
    if sc.model is None:
        raise ScenarioSemanticError(
            "this command needs a [rabinowitz] section")
    m = sc.model
    lines = [HEADER,
             "variant: %s" % type(m.variant).__name__,
             "tame class: %s" % type(m.tame_class).__name__,
             "motion rate: %s" % m.motion_rate,
             "eta growth rate: %s" % m.eta_growth_rate]
    verdict = classify_invariance(m, rho0=sc.model_rho0, kappa=sc.model_kappa)
    if verdict.phi is not None:
        lines.append("growth bound: %s" % phi_text(verdict.phi))
    if isinstance(verdict, ClassSurvives):
        lines.append("verdict: class survives (margin %s)" % verdict.report.margin)
    elif isinstance(verdict, Inconclusive):
        lines.append("verdict: inconclusive: %s (failing integral %s)" %
                     (verdict.reason, verdict.failing_integral))
    else:
        lines.append("verdict: invariant")
    lines.append("assumption: %s" % verdict.assumption)
    return [("rabinowitz.txt", "\n".join(lines) + "\n")], 0


def _cmd_plot(sc, flags):
    out = [("cerf.svg", family_svg(sc.family, sc.events))]
    trace = _trace(sc, flags)
    if trace is not None:
        out.append(("trace.svg", trace_svg(trace)))
    return out, 0


_COMMANDS = {
    "validate": _cmd_validate,
    "evolve": _valid_family(_cmd_evolve),
    "homology": _valid_family(_cmd_homology),
    "track": _valid_family(_cmd_track),
    "escape": _valid_family(_cmd_escape),
    "cascade": _cmd_cascade,
    "rabinowitz": _cmd_rabinowitz,
    "plot": _valid_family(_cmd_plot),
}


def run(command, scenario, flags):
    """Execute one command; returns RunArtifacts (writes files under
    flags.out when that is set)."""
    if command not in _COMMANDS:
        raise ScenarioError("unknown command %r" % command)
    reports, code = _COMMANDS[command](scenario, flags)
    files = []
    if getattr(flags, "out", None):
        os.makedirs(flags.out, exist_ok=True)
        for name, text in reports:
            p = os.path.join(flags.out, name)
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(text)
            files.append(p)
    return RunArtifacts(tuple(reports), tuple(files), code)


@functools.cache
def _build_parser():
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every main() call shares it."""
    ap = argparse.ArgumentParser(
        prog="morseflow",
        description="Evolve, track and bound flow-line counts over "
                    "one-parameter families.")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("scenario", nargs="?",
                    help="scenario file path or bundled scenario name")
    ap.add_argument("--coeff", choices=sorted(RINGS),
                    help="override the coefficient ring")
    ap.add_argument("--window", metavar="a=LO,b=HI",
                    help="override the action window")
    ap.add_argument("--class", metavar="CHAIN",
                    help="cycle to track, e.g. 'c1 + 2*c2'")
    ap.add_argument("--phi", metavar="BOUND",
                    help="growth bound, e.g. 'linear(c=2)'")
    ap.add_argument("--out", metavar="DIR", help="write reports into DIR")
    ap.add_argument("--n", type=int, help="cascade: number of stages")
    ap.add_argument("--base", default="1", help="cascade: starting action")
    ap.add_argument("--ratio", default="2", help="cascade: growth per stage")
    ap.add_argument("--delta", default="1", help="cascade: slide entry value")
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        arts = run(args.command, args.scenario, args)
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MorseflowError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.exit_code
    if arts.files:
        for p in arts.files:
            print(p)
    else:
        for _, text in arts.reports:
            sys.stdout.write(text)
    return arts.exit_code


if __name__ == "__main__":
    sys.exit(main())
