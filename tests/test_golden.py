"""CLI output against golden files.

Each case runs ``bifree.cli.main`` in process on the fixture documents in
``tests/data`` and compares the exit code and the stdout bytes with
``tests/data/<case>.out``.  The golden files were written by an earlier
build whose output the other tests had checked; a change meant to alter the
output rewrites them with ``bifree <argv> > <case>.out``, run in
``tests/data``.
"""

from pathlib import Path

import pytest

from bifree.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "selfcheck-seed0": (["selfcheck", "--seed", "0"], 0),
    "selfcheck-seed3-size1": (["selfcheck", "--seed", "3", "--size", "1"], 0),
    "selfcheck-seed1-corrupt": (["selfcheck", "--seed", "1", "--corrupt"], 1),
    "convolve-a-b": (["convolve", "table_a.json", "table_b.json"], 0),
    "convolve-c-d": (["convolve", "table_c.json", "table_d.json"], 0),
    "convolve-d-d": (["convolve", "table_d.json", "table_d.json"], 0),
    "moment-shift-abab": (["moment", "shift_system.json", "--word", "a0 b0 a0 b0"], 0),
    "moment-shift-bbaa": (["moment", "shift_system.json", "--word", "b0 b0 a0 a0"], 0),
    "moment-shift-baab": (["moment", "shift_system.json", "--word", "b0 a0 a0 b0"], 0),
    "moment-fock-baab": (["moment", "fock_system.json", "--word", "b0 a0 a0 b0"], 0),
    "moment-fock-bbaa": (["moment", "fock_system.json", "--word", "b0 b0 a0 a0"], 0),
}
for _name in "abcd":
    _path = f"table_{_name}.json"
    CASES[f"cumulants-{_name}"] = (["cumulants", _path], 0)
    CASES[f"cumulants-{_name}-box11"] = (["cumulants", _path, "--box", "1", "1"], 0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsysbinary, monkeypatch):
    argv, code = CASES[case]
    monkeypatch.chdir(DATA)
    assert main(argv) == code
    assert capsysbinary.readouterr().out == (DATA / f"{case}.out").read_bytes()
