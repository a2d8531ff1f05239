"""CLI text and SVG output stays byte-identical to the recorded goldens."""

import json

import pytest

import golden

with open(golden.GOLDEN, encoding="utf-8") as fh:
    WANT = json.load(fh)


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    return golden.collect(str(tmp_path_factory.mktemp("golden")))


def test_same_cases(got):
    assert sorted(got) == sorted(WANT)


@pytest.mark.parametrize("case", sorted(WANT))
def test_output_matches_golden(got, case):
    assert got[case] == WANT[case]
