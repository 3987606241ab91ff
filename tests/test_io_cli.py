"""JSON round-trips and command-line behavior, including exit codes."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import bifree
from bifree.cli import main
from bifree.io import (
    ParseError,
    _ij_word,
    from_json,
    parse_word,
    rational_from_json,
    rational_to_json,
    to_json,
)
from bifree.oracle import LEFT, RIGHT, shift_pair_rep
from bifree.partial_r import PartialRTable, TwoBandsTable, biconvolve, compute_partial_r
from bifree.rank1 import Rank1System, extract_system
from bifree.selfcheck import run_selfcheck
from bifree.series import Series1
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
    assert parse_word("a1 b2 a1") == word
    assert _ij_word((1, 3), (2,)) == "a1 a3 b2"
    assert parse_word(_ij_word((1, 3), (2,))) == ((LEFT, 1), (LEFT, 3), (RIGHT, 2))
    assert _ij_word((), ()) == ""
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


def test_moment_seq_kind_rejected(tmp_path, capsys):
    # no command reads or writes a bare moment sequence
    text = '{"format_version": "1", "kind": "moment_seq", "moments": [1, 2]}'
    with pytest.raises(ParseError, match="unknown kind 'moment_seq'"):
        from_json(text)
    path = tmp_path / "moments.json"
    path.write_text(text)
    assert main(["cumulants", str(path)]) == 2
    assert "unknown kind" in capsys.readouterr().err
    with pytest.raises(TypeError):
        to_json((1, 2))


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


def test_rank1_labels_that_no_word_names_are_refused():
    # a word names a label in decimal digits, so only a non-negative int
    # reads back: to_json names the first other label instead of writing a
    # document that from_json refuses
    cases = [((-1,), (0,)), ((0,), ("x",)), ((True,), (0,)), ((0, 1), (2, -3)), ((0,), (0.0,))]
    for left, right in cases:
        system = Rank1System(left, right, {}, {((), ()): 1}, 1)
        bad = next(k for k in left + right if type(k) is not int or k < 0)
        with pytest.raises(ValueError, match=f"label {bad!r} is not a non-negative int"):
            to_json(system)
    assert from_json(to_json(Rank1System((0, 7), (3,), {}, {((), ()): 1}, 1))).left_indices == (0, 7)


def test_negative_rank1_labels_rejected(tmp_path, capsys):
    doc = json.loads(to_json(extract_system(shift_pair_rep(3, [[1, 0], [0, 1]]), cap=2)))
    path = tmp_path / "system.json"
    for field in ("left_indices", "right_indices"):
        bad = dict(doc, **{field: [0, -1]})
        with pytest.raises(ParseError, match=f"'{field}' must be a list of non-negative integers"):
            from_json(json.dumps(bad))
        path.write_text(json.dumps(bad))
        assert main(["moment", str(path), "--word", "a0"]) == 2
        assert "non-negative integers" in capsys.readouterr().err


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
        from_json('{"format_version": "2", "kind": "two_bands_pair", "values": [[1]]}')
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
        from_json('{"format_version": "1", "kind": "two_bands_pair", "values": [[1]], "values": [[1]]}')
    with pytest.raises(ParseError):
        from_json('{"format_version": "1", "kind": "two_bands_pair", "values": [[1, "1.5"]]}')
    if DIGIT_LIMIT:
        big = "7" * (DIGIT_LIMIT + 1)
        with pytest.raises(ParseError):
            from_json(f'{{"format_version": "1", "kind": "two_bands_pair", "values": [[1, {big}]]}}')
    with pytest.raises(ParseError):
        from_json("[" * 100_000)


def test_bad_cap_rejected(tmp_path, capsys):
    # Rank1System checks the cap; from_json reports its ValueError as a ParseError
    doc = json.loads(to_json(extract_system(shift_pair_rep(3, [[1, 0], [0, 1]]), cap=2)))
    path = tmp_path / "system.json"
    for cap in (2.5, True, -1, "3"):
        doc["cap"] = cap
        with pytest.raises(ParseError, match="cap must be a nonnegative int"):
            from_json(json.dumps(doc))
        path.write_text(json.dumps(doc))
        assert main(["moment", str(path), "--word", "a0"]) == 2
        assert "cap must be a nonnegative int" in capsys.readouterr().err


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
KINDS = ("two_bands_pair", "partial_r_table", "rank1_system")


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


def test_console_script_writes_outputs_past_the_digit_limit(tmp_path):
    # entry() lifts the interpreter's int <-> str digit limit in its own
    # process: a table with 3000-digit entries convolved with itself has
    # entries of more than 4300 digits, and the cumulants of that output read
    # them back; both outputs are the library's values, byte for byte
    big = 10**2999 + 7
    table = TwoBandsTable([[1, big], [F(big, 3), -big], [F(big, 7), 2]])
    (tmp_path / "t.json").write_text(to_json(table), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(bifree.__file__).parent.parent))
    for argv in (["convolve", "t.json", "t.json", "-o", "conv.json"],
                 ["cumulants", "conv.json", "-o", "r.json"]):
        done = subprocess.run([sys.executable, "-m", "bifree.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
    conv = biconvolve(table, table)
    assert any(abs(x.numerator) > 10**4300 for row in conv.values for x in row)
    if DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    try:
        want = to_json(conv), to_json(compute_partial_r(conv))
    finally:
        if DIGIT_LIMIT:
            sys.set_int_max_str_digits(DIGIT_LIMIT)
    got = tuple((tmp_path / name).read_text(encoding="utf-8") for name in ("conv.json", "r.json"))
    assert got == want


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


def test_rank1_bad_normalization_exits_3(tmp_path, capsys):
    # a system whose empty word is wrong or missing breaks phi(1) = 1, as a
    # table with corner 2 does: the document reads as BadNormalization, not
    # as a ParseError, and the command exits 3 with the system's message
    doc = json.loads((DATA / "shift_system.json").read_text(encoding="utf-8"))
    wrong = {**doc["two_bands"], "": 2}
    missing = {word: v for word, v in doc["two_bands"].items() if word}
    path = tmp_path / "bad_norm_system.json"
    for two_bands in (wrong, missing):
        path.write_text(json.dumps({**doc, "two_bands": two_bands}), encoding="utf-8")
        with pytest.raises(BadNormalization):
            from_json(path.read_text(encoding="utf-8"))
        assert main(["moment", str(path), "--word", "a0 b0"]) == 3
        err = capsys.readouterr().err
        assert err == "error: two_bands must contain the empty word with value 1\n"


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


# every suite can fail: each test below feeds one suite one wrong value
# through the function it checks, and the suite must report it


def assert_only_suite_fails(report, ok, suite):
    assert ok is False
    assert f"FAIL {suite}: " in report
    assert report.count("FAIL") == 1, report


def test_determination_suite_sees_one_wrong_moment(monkeypatch):
    import bifree.selfcheck as selfcheck

    real = selfcheck.mixed_moment

    def off_by_one(system, word):
        value = real(system, word)
        return value + 1 if tuple(word) == ((LEFT, 0), (RIGHT, 0)) else value

    monkeypatch.setattr(selfcheck, "mixed_moment", off_by_one)
    assert_only_suite_fails(*run_selfcheck(0), "two-bands-determination")


def test_subordination_suite_sees_one_wrong_coefficient(monkeypatch):
    import bifree.selfcheck as selfcheck

    real = selfcheck.subordination_series

    def perturbed(m1, m2, order):
        u1, u2 = real(m1, m2, order)
        return Series1(u1.coeffs[:2] + (u1.coeffs[2] + 1,) + u1.coeffs[3:]), u2

    monkeypatch.setattr(selfcheck, "subordination_series", perturbed)
    assert_only_suite_fails(*run_selfcheck(0), "subordination-identities")


def test_independence_suite_sees_a_sum_that_does_not_factorize(monkeypatch):
    import bifree.selfcheck as selfcheck

    real = selfcheck.biconvolve

    def unfactored(t1, t2):
        rows = [list(row) for row in real(t1, t2).values]
        rows[1][1] += 1
        return TwoBandsTable(rows)

    monkeypatch.setattr(selfcheck, "biconvolve", unfactored)
    report, ok = run_selfcheck(0)
    # the additivity and subordination suites call biconvolve too
    assert ok is False
    assert "FAIL independence-closure: " in report


def test_factorization_suite_sees_a_wrong_pair_moment(monkeypatch):
    import bifree.selfcheck as selfcheck
    from bifree.oracle import ProductState

    class WrongPairs(ProductState):
        # a one-factor product gives the pair moments the suite expects
        __slots__ = ()

        def expectation(self, vec):
            value = super().expectation(vec)
            return value + 1 if len(self.factors) == 1 else value

    monkeypatch.setattr(selfcheck, "ProductState", WrongPairs)
    assert_only_suite_fails(*run_selfcheck(0), "alternating-factorization")


def test_selfcheck_size_below_1_exits_2(capsys):
    for size in ("0", "-3"):
        assert main(["selfcheck", "--seed", "0", "--size", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size must be >= 1" in captured.err


def test_run_selfcheck_size_must_be_an_int():
    for size in (1.5, True, 2.0, "2", 0):
        with pytest.raises(ValueError, match="size must be >= 1"):
            run_selfcheck(0, size)


def test_selfcheck_seed_defaults_to_0(monkeypatch, capsys):
    # the environment does not move the default seed
    monkeypatch.setenv("BIFREE_SEED", "5")
    assert main(["selfcheck", "--size", "1"]) == 0
    default = capsys.readouterr().out
    assert main(["selfcheck", "--seed", "0", "--size", "1"]) == 0
    assert default == capsys.readouterr().out
    assert default.endswith("(seed=0, size=1)\n")


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
