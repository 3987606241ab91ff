"""JSON round-trips and command-line behavior, including exit codes."""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from bifree.cli import main
from bifree.io import (
    ParseError,
    from_json,
    parse_word,
    rational_from_json,
    rational_to_json,
    to_json,
    word_to_str,
)
from bifree.oracle import LEFT, RIGHT, shift_pair_rep
from bifree.partial_r import PartialRTable, TwoBandsTable, compute_partial_r
from bifree.rank1 import Rank1System, extract_system
from bifree.transforms import BadNormalization
from helpers import random_table, save_path

ENTRIES = dict(lo=-9, hi=9, denominators=(1, 2, 3))
# The most digits int() reads from a string; 0 when the interpreter sets no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


# -- rationals --


def test_rational_codec():
    assert rational_to_json(F(3)) == 3
    assert rational_to_json(F(-7, 2)) == "-7/2"
    assert rational_from_json(3) == F(3)
    assert rational_from_json("-7/2") == F(-7, 2)
    assert rational_from_json("12/8") == F(3, 2)
    assert rational_from_json("-5") == F(-5)
    bad_literals = ["1.5", "1e3", " 7 ", "1_000", "1e2000000", "1/0", "+3", "3/-2", "", "\u0661"]
    for bad in [1.5, True, None, [1]] + bad_literals:
        with pytest.raises(ParseError):
            rational_from_json(bad)
    if DIGIT_LIMIT:
        with pytest.raises(ParseError):
            rational_from_json("7" * (DIGIT_LIMIT + 1))


def test_word_codec():
    word = ((LEFT, 1), (RIGHT, 2), (LEFT, 1))
    assert word_to_str(word) == "a1 b2 a1"
    assert parse_word("a1 b2 a1") == word
    assert parse_word("") == ()
    with pytest.raises(ParseError):
        parse_word("c3")
    with pytest.raises(ParseError):
        parse_word("a")
    with pytest.raises(ParseError):
        parse_word("a\u0661")  # a non-ASCII digit
    if DIGIT_LIMIT:
        with pytest.raises(ParseError):
            parse_word("a" + "1" * (DIGIT_LIMIT + 1))


# -- document round-trips --


def test_two_bands_roundtrip():
    rng = random.Random(3)
    table = random_table(rng, (3, 2), **ENTRIES)
    text = to_json(table)
    again = from_json(text)
    assert again == table
    assert to_json(again) == text


def test_partial_r_roundtrip():
    rng = random.Random(4)
    r = compute_partial_r(random_table(rng, (3, 3), **ENTRIES))
    assert from_json(to_json(r)) == r


def test_moment_seq_roundtrip():
    moments = (F(1), F(-2), F(7, 3))
    text = to_json(moments)
    assert from_json(text) == moments
    assert json.loads(text)["kind"] == "moment_seq"


rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def documents(draw):
    """A random TwoBandsTable, PartialRTable or extracted Rank1System."""
    kind = draw(st.sampled_from(["moments", "cumulants", "system"]))
    if kind == "system":
        omega = draw(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2))
        dim = draw(st.integers(2, 4))
        return extract_system(shift_pair_rep(dim, omega), cap=draw(st.integers(0, 2 * dim - 2)))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(rationals, min_size=n + 1, max_size=n + 1),
                         min_size=m + 1, max_size=m + 1))
    rows[0][0] = F(1) if kind == "moments" else F(0)
    return TwoBandsTable(rows) if kind == "moments" else PartialRTable(rows)


def _fields(x):
    if isinstance(x, Rank1System):
        return (x.left_indices, x.right_indices, dict(x.lam), dict(x.two_bands), x.cap)
    return x


@given(documents())
@settings(max_examples=100, deadline=None)
def test_json_roundtrip_property(x):
    text = to_json(x)
    again = from_json(text)
    assert type(again) is type(x)
    assert _fields(again) == _fields(x)
    assert to_json(again) == text


def test_rank1_roundtrip():
    system = extract_system(shift_pair_rep(4, [[1, 2], [3, 1]]), cap=4)
    text = to_json(system)
    again = from_json(text)
    assert isinstance(again, Rank1System)
    assert again.two_bands == system.two_bands
    assert again.lam == system.lam
    assert again.cap == system.cap
    assert to_json(again) == text


def test_unknown_fields_rejected():
    doc = json.loads(to_json(TwoBandsTable([[1, 0], [0, 0]])))
    doc["extra"] = 1
    with pytest.raises(ParseError):
        from_json(json.dumps(doc))
    del doc["extra"]
    del doc["values"]
    with pytest.raises(ParseError):
        from_json(json.dumps(doc))


def test_version_and_kind_checked():
    with pytest.raises(ParseError):
        from_json('{"format_version": "2", "kind": "moment_seq", "moments": [1]}')
    with pytest.raises(ParseError):
        from_json('{"format_version": "1", "kind": "mystery", "values": [[1]]}')
    with pytest.raises(ParseError):
        from_json("[1, 2]")
    with pytest.raises(ParseError):
        from_json("not json")
    with pytest.raises(ParseError):
        from_json('{"format_version": "1", "kind": "two_bands_pair", "values": [[1, 2], [3]]}')
    for kind in ("[]", "{}", '["two_bands_pair"]', "null", "1"):
        with pytest.raises(ParseError):
            from_json(f'{{"format_version": "1", "kind": {kind}, "values": [[1]]}}')
    # a field written twice; json.dumps cannot produce this, so it is raw text
    with pytest.raises(ParseError):
        from_json('{"format_version": "1", "kind": "moment_seq", "moments": [1], "moments": [1]}')
    with pytest.raises(ParseError):
        from_json('{"format_version": "1", "kind": "moment_seq", "moments": ["1.5"]}')
    if DIGIT_LIMIT:
        big = "7" * (DIGIT_LIMIT + 1)
        with pytest.raises(ParseError):
            from_json(f'{{"format_version": "1", "kind": "moment_seq", "moments": [1, {big}]}}')
    with pytest.raises(ParseError):
        from_json("[" * 100_000)


def test_noncanonical_two_bands_word_rejected():
    system = extract_system(shift_pair_rep(3, [[1, 0], [0, 1]]), cap=2)
    doc = json.loads(to_json(system))
    doc["two_bands"]["b0 a0"] = 0
    with pytest.raises(ParseError):
        from_json(json.dumps(doc))
    # one word written twice, once with extra whitespace
    doc = json.loads(to_json(system))
    doc["two_bands"][" a0"] = doc["two_bands"]["a0"]
    with pytest.raises(ParseError):
        from_json(json.dumps(doc))
    # one key written twice: the second value would silently win
    text = to_json(system)
    assert '"a0": 0,' in text
    with pytest.raises(ParseError):
        from_json(text.replace('"a0": 0,', '"a0": 5,\n    "a0": 0,'))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
FIELDS = ("values", "moments", "left_indices", "right_indices", "lambda", "cap", "two_bands")
KINDS = ("two_bands_pair", "partial_r_table", "moment_seq", "rank1_system")


@given(
    st.fixed_dictionaries(
        {"format_version": st.just("1"), "kind": st.sampled_from(KINDS) | JSON_VALUES},
        optional={field: JSON_VALUES for field in FIELDS},
    )
)
@settings(max_examples=300, deadline=None)
def test_from_json_raises_only_its_own_errors(doc):
    try:
        from_json(json.dumps(doc))
    except (ParseError, BadNormalization):
        pass


# -- CLI --


@pytest.fixture
def files(tmp_path):
    rng = random.Random(9)
    paths = {}
    paths["table"] = tmp_path / "table.json"
    save_path(paths["table"], random_table(rng, (2, 2), **ENTRIES))
    paths["product"] = tmp_path / "product.json"
    save_path(paths["product"], TwoBandsTable.product([1, 2, 5], [1, -1, 3]))
    paths["other"] = tmp_path / "other.json"
    save_path(paths["other"], random_table(rng, (2, 2), **ENTRIES))
    paths["small"] = tmp_path / "small.json"
    save_path(paths["small"], random_table(rng, (1, 1), **ENTRIES))
    paths["system"] = tmp_path / "system.json"
    save_path(paths["system"], extract_system(shift_pair_rep(4, [[1, 2], [3, 1]]), cap=4))
    return {k: str(v) for k, v in paths.items()}


def test_cumulants_command(files, capsys):
    assert main(["cumulants", files["product"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "partial_r_table"
    r = PartialRTable([[rational_from_json(v) for v in row] for row in doc["values"]])
    assert all(r.values[m][n] == 0 for m in range(1, 3) for n in range(1, 3))


def test_cumulants_of_scalar_pair(files, capsys, tmp_path):
    c1, c2 = F(2), F(-3)
    path = tmp_path / "scalar.json"
    save_path(path, TwoBandsTable.product([1, c1, c1**2], [1, c2, c2**2]))
    assert main(["cumulants", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = [[rational_from_json(v) for v in row] for row in doc["values"]]
    for m in range(3):
        for n in range(3):
            if (m, n) == (1, 0):
                assert values[m][n] == c1
            elif (m, n) == (0, 1):
                assert values[m][n] == c2
            else:
                assert values[m][n] == 0


def test_cumulants_integrality_visible_in_output(files, capsys, tmp_path):
    rng = random.Random(10)
    vals = [[F(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
    vals[0][0] = F(1)
    path = tmp_path / "int.json"
    save_path(path, TwoBandsTable(vals))
    assert main(["cumulants", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(isinstance(v, int) for row in doc["values"] for v in row)


def test_cumulants_box_truncation(files, capsys):
    assert main(["cumulants", files["table"], "--box", "1", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["values"]) == 2 and len(doc["values"][0]) == 2
    assert main(["cumulants", files["table"], "--box", "5", "5"]) == 4


def test_cumulants_negative_box_exits_2(files, capsys):
    for box in (["-2", "2"], ["1", "-1"]):
        assert main(["cumulants", files["table"], "--box", *box]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truncation orders must be >= 0" in captured.err


def test_cumulants_output_deterministic(files, capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["cumulants", files["table"], "-o", str(out1)]) == 0
    assert main(["cumulants", files["table"], "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_convolve_command(files, capsys):
    assert main(["convolve", files["table"], files["other"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "two_bands_pair"


def test_convolve_box_mismatch_exits_4(files, capsys):
    assert main(["convolve", files["table"], files["small"]]) == 4


def test_moment_command(files, capsys):
    system = from_json(open(files["system"]).read())
    assert main(["moment", files["system"], "--word", "a0 b0"]) == 0
    first = capsys.readouterr().out.strip()
    assert F(first) == system.phi((0,), (0,))
    assert main(["moment", files["system"], "--word", "b0 a0"]) == 0
    second = capsys.readouterr().out.strip()
    assert F(second) == system.phi((0,), (0,)) - system.coefficient(0, 0)


def test_moment_unknown_index_exits_2(files, capsys):
    assert main(["moment", files["system"], "--word", "a7"]) == 2
    assert main(["moment", files["system"], "--word", "x1"]) == 2


def test_moment_cap_exceeded_exits_5(files, capsys):
    assert main(["moment", files["system"], "--word", "a0 " * 5]) == 5


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["cumulants", str(bad)]) == 2
    assert main(["cumulants", str(tmp_path / "missing.json")]) == 2


def test_bad_normalization_exits_3(tmp_path, capsys):
    doc = {"format_version": "1", "kind": "two_bands_pair", "values": [[2, 0], [0, 0]]}
    path = tmp_path / "bad_norm.json"
    path.write_text(json.dumps(doc))
    assert main(["cumulants", str(path)]) == 3


def test_selfcheck_deterministic(capsys):
    assert main(["selfcheck", "--seed", "5", "--size", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["selfcheck", "--seed", "5", "--size", "1"]) == 0
    assert capsys.readouterr().out == first
    assert first.count("PASS") == 5


def test_selfcheck_negative_control(capsys):
    assert main(["selfcheck", "--seed", "5", "--size", "1", "--corrupt"]) == 1
    out = capsys.readouterr().out
    assert "FAIL additivity-vs-oracle" in out


def test_selfcheck_size_below_1_exits_2(capsys):
    for size in ("0", "-3"):
        assert main(["selfcheck", "--seed", "0", "--size", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size must be >= 1" in captured.err


def test_selfcheck_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("BIFREE_SEED", "5")
    assert main(["selfcheck", "--size", "1"]) == 0
    via_env = capsys.readouterr().out
    assert main(["selfcheck", "--seed", "5", "--size", "1"]) == 0
    assert via_env == capsys.readouterr().out


# -- cli.main on arbitrary argv and file contents --

DATA = Path(__file__).parent / "data"
DOCUMENTS = [path.read_bytes() for path in sorted(DATA.glob("*.json"))]


@st.composite
def file_contents(draw):
    """A fixture document as it is, with a few bytes changed, or random bytes."""
    how = draw(st.sampled_from(["valid", "valid", "mutated", "random"]))
    if how == "random":
        return draw(st.binary(max_size=200))
    doc = bytearray(draw(st.sampled_from(DOCUMENTS)))
    if how == "mutated":
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(doc) - 1))
            edit = draw(st.sampled_from(["replace", "delete", "insert", "cut"]))
            if edit == "replace":
                doc[i] = draw(st.integers(0, 255))
            elif edit == "delete":
                del doc[i]
            elif edit == "insert":
                doc.insert(i, draw(st.sampled_from(b'0123456789-/.,:"[]{} ae')))
            else:
                del doc[i:]
            if not doc:
                break
    return bytes(doc)


WORDS = st.lists(st.sampled_from(["a0", "b0", "a1", "b1", "a", "c0", "a-1", "b00"]), max_size=6)


# the options each subcommand accepts, and how many positional files it takes
USAGE = {
    "cumulants": ({"--box", "-o"}, 1),
    "convolve": ({"-o"}, 2),
    "moment": ({"--word"}, 1),
    "selfcheck": ({"--seed", "--size", "--corrupt"}, 0),
}


@st.composite
def cli_argv(draw, names):
    """argv over the four subcommands; now and then an option or a file too many."""
    command = draw(st.sampled_from(sorted(USAGE)))
    accepted, count = USAGE[command]

    def wanted(option):
        return draw(st.booleans()) if option in accepted else draw(st.integers(0, 9)) == 0

    if draw(st.integers(0, 9)) == 0:
        count = draw(st.integers(0, 3))
    positional = draw(st.lists(st.sampled_from(names), min_size=count, max_size=count))
    options = []
    if wanted("--box"):
        options.append(["--box", *map(str, draw(st.lists(st.integers(-2, 5), min_size=2, max_size=2)))])
    if command == "moment" or wanted("--word"):
        options.append(["--word", draw(WORDS.map(" ".join) | st.text(max_size=8))])
    if wanted("-o"):
        options.append(["-o", draw(st.sampled_from(["out.json", ".", "missing/out.json"]))])
    if wanted("--seed"):
        options.append(["--seed", draw(st.sampled_from(["0", "7", "-3", "99999999999", "x"]))])
    if command == "selfcheck":
        # the default size is 2; larger suites only cost time
        options.append(["--size", str(draw(st.integers(-1, 1)))])
    if wanted("--corrupt"):
        options.append(["--corrupt"])
    return [command, *positional, *(arg for group in draw(st.permutations(options)) for arg in group)]


@given(data=st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_returns_a_documented_exit_code(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)
    names = ["doc0.json", "doc1.json", "doc2.json", "missing.json", "."]
    for name in names[:3]:
        (tmp_path / name).write_bytes(data.draw(file_contents()))
    argv = data.draw(cli_argv(names))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        assert exc.code == 2
        event("usage error")
    else:
        assert code in {0, 1, 2, 3, 4, 5}
        event(f"exit {code}")
