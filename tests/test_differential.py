"""tests/differential.py tells two trees apart by their command outputs.

Only its bundled-scenario, values, track, cerf, homology, parse, coset,
ladder, geometry, maps, affine and numbers probes run here, to keep the
check short.  The values probe runs the same track_class as the track probe,
and reads only what escape and plot print.
"""

import re
import shutil

import differential


def test_a_tree_against_itself_shows_no_difference():
    lines, cases, differ = differential.compare(
        differential.SRC, differential.SRC, ["bundled"])
    assert cases > 0 and differ == 0
    assert lines == ["bundled: %d cases, 0 differ" % cases]


def test_a_planted_character_in_the_report_header_shows(tmp_path):
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "morseflow" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('HEADER = "# morseflow ') == 1
    cli.write_text(text.replace('HEADER = "# morseflow ',
                                'HEADER = "# morseflow! '), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["bundled"])
    assert 0 < differ < cases
    assert lines[0] == "bundled: %d cases, %d differ" % (cases, differ)
    assert lines[2].startswith("    - ") and "morseflow! 0.1.0" in lines[2]
    assert lines[3].startswith("    + ") and "morseflow 0.1.0" in lines[3]


def test_a_planted_stale_order_shows_in_the_values_probe(tmp_path):
    # a sweep that keeps the previous order at a slab bound, instead of
    # re-sorting the arcs that meet there, keeps a top past the bound
    # where it hands over
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    tracker = tmp_path / "src" / "morseflow" / "tracker.py"
    text = tracker.read_text(encoding="utf-8")
    fresh = "order = (_resort_runs(order, movers[i], key) if i"
    assert text.count(fresh) == 1
    tracker.write_text(text.replace(fresh, "order = (order if i"),
                       encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["values"])
    assert 0 < differ < cases
    assert lines[0] == "values: %d cases, %d differ" % (cases, differ)
    assert any(line.strip().startswith("values cascade 6 ")
               for line in lines[1:])


def test_a_planted_comparator_of_numerators_shows_in_the_affine_probe(
        tmp_path):
    # a slab order that compares actions by their numerators alone is
    # right only where the denominators agree, so a family and its
    # rescaled image get other tops
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    tracker = tmp_path / "src" / "morseflow" / "tracker.py"
    text = tracker.read_text(encoding="utf-8")
    cross = "lambda u, v: v[0] * u[1] - u[0] * v[1] or"
    assert text.count(cross) == 1
    tracker.write_text(text.replace(cross, "lambda u, v: v[0] - u[0] or"),
                       encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["affine"])
    assert 0 < differ < cases
    assert lines[0] == "affine: %d cases, %d differ" % (cases, differ)
    planted = [line for line in lines if line.startswith("    - ")]
    assert planted and all("track window" in line for line in planted)


def test_a_planted_side_without_tie_break_shows_in_the_cerf_probe(tmp_path):
    # a local-order reader that takes the difference at r alone finds
    # every vertex misoriented, since both branches meet there
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    piecewise = tmp_path / "src" / "morseflow" / "piecewise.py"
    text = piecewise.read_text(encoding="utf-8")
    tie = "d = diffs[0] or diffs[1]"
    assert text.count(tie) == 1
    piecewise.write_text(text.replace(tie, "d = diffs[0]"), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["cerf"])
    assert 0 < differ < cases
    assert lines[0] == "cerf: %d cases, %d differ" % (cases, differ)
    assert any("vertex-orientation" in line for line in lines[1:])


def test_a_planted_validator_without_vertex_arcs_shows_in_the_cerf_probe(
        tmp_path):
    # without the vertex-arcs check a vertex repointed at a third arc
    # passes, and the components it joins are no loops or chords
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cerf = tmp_path / "src" / "morseflow" / "cerf.py"
    text = cerf.read_text(encoding="utf-8")
    check = 'err("vertex-arcs",'
    assert text.count(check) == 2
    cerf.write_text(text.replace(check, "(lambda *_: None)("),
                    encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["cerf"])
    assert 0 < differ < cases
    assert lines[0] == "cerf: %d cases, %d differ" % (cases, differ)
    assert any(line.strip().endswith((" retag", " repoint"))
               for line in lines[1:])


def test_a_planted_homology_without_its_last_row_shows(tmp_path):
    # an elimination that leaves out the last nonzero row of the
    # transposed differential loses a pivot wherever that row has one
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    algebra = tmp_path / "src" / "morseflow" / "algebra.py"
    text = algebra.read_text(encoding="utf-8")
    rows = "[c for c in order if c in hit]"
    assert text.count(rows) == 1
    algebra.write_text(text.replace(rows, rows + "[:-1]"), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["homology"])
    assert 0 < differ < cases
    assert lines[0] == "homology: %d cases, %d differ" % (cases, differ)


def test_a_planted_leg_count_past_the_source_block_shows_in_the_ladder_probe(
        tmp_path):
    # a leg rank that leaves out the pivots at the first target position
    # loses a dimension of f(Z) + B wherever one leads there
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    tracker = tmp_path / "src" / "morseflow" / "tracker.py"
    text = tracker.read_text(encoding="utf-8")
    past = "sum(p >= n for p in pivots)"
    assert text.count(past) == 1
    tracker.write_text(text.replace(past, "sum(p > n for p in pivots)"),
                       encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["ladder"])
    assert 0 < differ < cases
    assert lines[0] == "ladder: %d cases, %d differ" % (cases, differ)


def test_a_planted_birth_inclusion_without_its_correction_shows(tmp_path):
    # an inclusion that sends each old generator to itself alone, not
    # past the born pair along its new-column entry, is no chain map;
    # a step's maps are not checked when read, so the maps probe shows it
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    bifurcation = tmp_path / "src" / "morseflow" / "bifurcation.py"
    text = bifurcation.read_text(encoding="utf-8")
    fix = "incl[(c, plus)] = -x * e_inv"
    assert text.count(fix) == 1
    bifurcation.write_text(text.replace(fix, "pass"), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["maps"])
    assert 0 < differ < cases
    assert lines[0] == "maps: %d cases, %d differ" % (cases, differ)
    shown = [line.strip() for line in lines if line.startswith("  ")
             and not line.startswith("    ")]
    assert shown and all(re.search(r" step \d+$", line) for line in shown)


def test_a_planted_slot_that_ignores_gamma0_shows_in_the_maps_probe(
        tmp_path):
    # the kept run handed out for any initial counter on the same family
    # and records: the copies with an extra entry read the run of the
    # family as drawn, in the report and in evolve, in either order
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    bifurcation = tmp_path / "src" / "morseflow" / "bifurcation.py"
    text = bifurcation.read_text(encoding="utf-8")
    key = "if g is gamma0 and ft is t"
    assert text.count(key) == 1
    bifurcation.write_text(text.replace(key, "if ft is t"), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["maps"])
    assert 0 < differ < cases
    assert lines[0] == "maps: %d cases, %d differ" % (cases, differ)
    shown = [line.strip() for line in lines if line.startswith("  ")
             and not line.startswith("    ")]
    assert shown and all(
        re.search(r" with \(.*\) (axioms|evolve|axioms after evolve)$", line)
        for line in shown)
    assert any(line.endswith(" axioms") for line in shown)


def _planted_bit_echelon(tmp_path, good, bad):
    """A copy of src whose algebra._bit_echelon has good replaced by bad,
    and the comparison of its coset and homology probes with src's."""
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    algebra = tmp_path / "src" / "morseflow" / "algebra.py"
    text = algebra.read_text(encoding="utf-8")
    assert text.count(good) == 1
    algebra.write_text(text.replace(good, bad), encoding="utf-8")
    return differential.compare(src, differential.SRC, ["coset", "homology"])


def _counts(lines):
    """{kind: (cases, differing cases)} from compare's report lines."""
    found = (re.fullmatch(r"(\w+): (\d+) cases, (\d+) differ", line)
             for line in lines)
    return {m[1]: (int(m[2]), int(m[3])) for m in found if m}


def test_a_planted_bit_reduction_shows_in_the_coset_and_homology_probes(
        tmp_path):
    # a bit elimination that clears only a row's lowest bit, instead of
    # adding the pivot row there, loses or gains pivots: wrong Z2 ranks
    # and wrong Z2 supports
    lines = _planted_bit_echelon(tmp_path, "v ^= b", "v ^= v & -v")[0]
    counts = _counts(lines)
    assert set(counts) == {"coset", "homology"}
    assert all(0 < bad < n for n, bad in counts.values())
    shown = [line.strip() for line in lines if line.startswith("  ")
             and not line.startswith("    ")]
    assert any(line.startswith("coset Z2 ") for line in shown)
    assert any(line.startswith("homology Z2 ") for line in shown)


def test_a_planted_highest_bit_pivot_shows_in_the_coset_probe(tmp_path):
    # pivots at the highest set bit echelonize in the reversed order: the
    # rank, and so every homology, is kept, but supports lead wrongly
    lines = _planted_bit_echelon(
        tmp_path, "p = (v & -v).bit_length() - 1", "p = v.bit_length() - 1")[0]
    counts = _counts(lines)
    assert 0 < counts["coset"][1] < counts["coset"][0]
    assert counts["homology"][1] == 0


def test_a_planted_reader_that_loses_a_sign_shows_in_the_parse_probe(
        tmp_path):
    # a literal reader that drops the minus of a fraction reads -3/4 as 3/4
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    scenario = tmp_path / "src" / "morseflow" / "scenario.py"
    text = scenario.read_text(encoding="utf-8")
    read = "return Fraction(int(num), int(den))"
    assert text.count(read) == 1
    scenario.write_text(text.replace(
        read, "return Fraction(abs(int(num)), int(den))"), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["parse"])
    assert 0 < differ < cases
    assert lines[0] == "parse: %d cases, %d differ" % (cases, differ)
    assert lines[1] == "  parse Q seed 0 as written"
    assert "= 3/2" in lines[2] and "= -3/2" in lines[3]


def test_a_planted_integer_type_ladder_shows_in_the_numbers_probe(tmp_path):
    # the integer ring's former type ladder: a float or a string, whole or
    # not, raises TypeError before frac reads it
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    rings = tmp_path / "src" / "morseflow" / "rings.py"
    text = rings.read_text(encoding="utf-8")
    read = "        x = frac(x)\n        if x.denominator != 1:"
    assert text.count(read) == 1
    rings.write_text(text.replace(read, (
        "        if isinstance(x, (float, str)):\n"
        "            raise TypeError('integer coefficient expected')\n")
        + read), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["numbers"])
    assert 0 < differ < cases
    assert lines[0] == "numbers: %d cases, %d differ" % (cases, differ)
    names = [line for line in lines[1:] if line.startswith("  numbers")]
    assert names and all(n.startswith("  numbers Z.coerce ") for n in names)
    assert "TypeError: integer coefficient expected" in lines[2]


def test_a_planted_push_that_stops_at_a_dropped_entry_shows(tmp_path):
    # a push that ends the trace at the first event whose forward image
    # leaves the window, instead of dropping the entries below the floor,
    # cuts short the traces of the geometry probe's narrow windows
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    tracker = tmp_path / "src" / "morseflow" / "tracker.py"
    text = tracker.read_text(encoding="utf-8")
    push = """        rep = {g: v for g, v in vec_apply(
            ring, rep, log.steps[fc.interval_index].maps.forward).items()
            if g in held}
"""
    assert text.count(push) == 1
    tracker.write_text(text.replace(push, """        image = vec_apply(
            ring, rep, log.steps[fc.interval_index].maps.forward)
        if not held.issuperset(image):
            outcome = "LeftWindow(below)"
            break
        rep = image
"""), encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["geometry"])
    assert 0 < differ < cases
    assert lines[0] == "geometry: %d cases, %d differ" % (cases, differ)
    shown = [line.strip() for line in lines if line.startswith("  ")
             and not line.startswith("    ")]
    assert shown and all(" track " in line for line in shown)



def test_a_planted_support_cut_to_its_top_shows_in_the_track_probe(tmp_path):
    # an image-free interval whose support keeps only its top leaves every
    # value as it was, so only the probe that reads supports sees it
    src = str(tmp_path / "src")
    shutil.copytree(differential.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    tracker = tmp_path / "src" / "morseflow" / "tracker.py"
    text = tracker.read_text(encoding="utf-8")
    shortcut = "else tuple(order))"
    assert text.count(shortcut) == 1
    tracker.write_text(text.replace(shortcut, "else tuple(order)[:1])"),
                       encoding="utf-8")
    lines, cases, differ = differential.compare(src, differential.SRC,
                                                ["values", "track"])
    counts = {m.group(1): (int(m.group(2)), int(m.group(3))) for m in (
        re.match(r"(\w+): (\d+) cases, (\d+) differ$", line)
        for line in lines) if m}
    assert counts["values"][1] == 0
    assert 0 < counts["track"][1] == differ < counts["track"][0]
    assert all(line.strip().startswith("track ") for line in lines
               if line.startswith("  ") and not line.startswith("    "))
