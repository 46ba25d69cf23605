"""Golden outputs: the default CLI output of every ``problems/*.json`` file,
pinned byte for byte together with its exit code."""

import pathlib

import pytest

from diskabc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

EXIT_CODES = {
    "abc_shifted_disk": 0,
    "dalpha_gapped": 0,
    "example1": 0,
    "example2": 0,
    "limit_r_cubic": 0,
    "mason_a_squares": 0,
    "truncation_geometric": 0,
}


def test_every_problem_file_is_pinned():
    assert sorted(p.stem for p in (ROOT / "problems").glob("*.json")) \
        == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_problem_output_byte_identical(name, capsys):
    code = main([str(ROOT / "problems" / f"{name}.json")])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert code == EXIT_CODES[name]
