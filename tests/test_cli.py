import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from troupes import cli, cumulants, troupe
from troupes.cumulants import ConditionCheck, EquivalenceReport, Verification
from troupes.series import Series, troupe_transform
from troupes.trees import encode, iter_bpt_word, iter_words, size_word


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_count_bpt():
    code, out, _ = run("count", "--kind", "bpt", "--n", "5")
    assert code == 0
    assert out == "42\n"


def test_count_other_kinds():
    assert run("count", "--kind", "branch", "--n", "6")[1] == "32\n"
    assert run("count", "--kind", "dbpt", "--n", "4")[1] == "24\n"
    assert run("count", "--kind", "noncrossing", "--n", "4")[1] == "14\n"
    assert run("count", "--kind", "partition", "--n", "4")[1] == "15\n"
    assert run("count", "--kind", "interval", "--n", "5")[1] == "16\n"
    assert run("count", "--kind", "d-permutations", "--n", "4")[1] == "3\n"


def test_count_encodes_no_tree(monkeypatch):
    import troupes.trees

    def refuse(*args):
        raise AssertionError("count encoded a tree")

    for name in ("encode", "encode_labeled"):
        monkeypatch.setattr(troupes.trees, name, refuse)
    assert run("count", "--kind", "bpt", "--n", "5") == (0, "42\n", "")
    assert run("count", "--kind", "branch", "--n", "6") == (0, "32\n", "")
    assert run("count", "--kind", "dbpt", "--colors", "0,1,1,0,1") == (0, "24\n", "")


def test_count_colored():
    code, out, _ = run("count", "--kind", "bpt", "--colors", "0,1,0")
    assert code == 0 and out == "2\n"


def test_enumerate_writes_tree_format():
    code, out, _ = run("enumerate", "--kind", "bpt", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines == [encode(t) for t in iter_bpt_word(size_word(3))]


def test_enumerate_partitions():
    code, out, _ = run("enumerate", "--kind", "nc-irreducible", "--n", "3")
    assert sorted(out.strip().splitlines()) == ["{{1,2,3}}", "{{1,3},{2}}"]


def test_tree_kinds_at_size_zero():
    # size 0 is the word of length 1: the empty tree, and no branch
    assert run("count", "--kind", "bpt", "--n", "0") == (0, "1\n", "")
    assert run("count", "--kind", "dbpt", "--n", "0") == (0, "1\n", "")
    assert run("count", "--kind", "branch", "--n", "0") == (0, "0\n", "")
    assert run("enumerate", "--kind", "bpt", "--n", "0") == (0, "0:.\n", "")
    assert run("enumerate", "--kind", "dbpt", "--n", "0") == (0, "0:.\n", "")
    assert run("enumerate", "--kind", "branch", "--n", "0") == (0, "", "")


def test_enumerate_requires_exactly_one_size():
    code, _, err = run("enumerate", "--kind", "bpt")
    assert code == 2
    code, _, err = run("enumerate", "--kind", "bpt", "--n", "2", "--colors", "0,0")
    assert code == 2


def test_transform_catalan():
    code, out, _ = run("transform", "--coeffs", "1,2,4,8,16", "--order", "6")
    assert code == 0
    assert out == "1,2,5,14,42\n"


def test_transform_inverse_roundtrip():
    code, out, _ = run("transform", "--coeffs", "1,2,5,14,42", "--order", "6",
                       "--kind", "inverse")
    assert code == 0
    assert out == "1,2,4,8,16\n"


def test_transform_bad_coeffs():
    code, _, err = run("transform", "--coeffs", "1,zebra")
    assert code == 2
    assert "zebra" in err


def test_transform_rejects_coefficients_beyond_order():
    code, out, err = run("transform", "--order", "3", "--coeffs", "1,2,3,4")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "4 coefficients given, but --order 3 keeps only 2" in err
    # as many coefficients as the order keeps is fine
    assert run("transform", "--order", "5", "--coeffs", "1,2,4,8")[:2] == (0, "1,2,5,14\n")


def test_cumulants_from_file(tmp_path):
    table = tmp_path / "moments.txt"
    table.write_text("word 0 = 0\nword 0,0 = 1\nword 0,0,0 = 0\nword 0,0,0,0 = 3\n")
    code, out, _ = run("cumulants", "--moments", str(table))
    assert code == 0
    assert "# classical" in out and "# free" in out and "# boolean" in out
    assert "word 0,0,0,0 = 0" in out  # classical K4 of the normal-like moments
    assert "word 0,0,0,0 = 1" in out  # free R4
    assert "word 0,0,0,0 = 2" in out  # boolean B4


def test_cumulants_bad_file(tmp_path):
    table = tmp_path / "moments.txt"
    table.write_text("word 0 = 0\nnot a line\n")
    code, _, err = run("cumulants", "--moments", str(table))
    assert code == 2
    assert "line 2" in err
    table.write_bytes(b"word 0 = 1\nword 0,0 = \xff2\n")
    code, out, err = run("cumulants", "--moments", str(table))
    assert code == 2 and out == ""
    assert "not UTF-8" in err and "0xff at offset 22" in err


def test_cumulants_missing_file():
    code, _, err = run("cumulants", "--moments", "/nonexistent/m.txt")
    assert code == 2


def test_verify_builtin_passes():
    code, out, _ = run("verify", "--troupe", "all", "--n", "5")
    assert code == 0
    assert "PASS" in out
    assert out.count("ok word") == 5


def test_verify_random_troupe():
    code, out, _ = run("verify", "--troupe", "random", "--seed", "3", "--n", "4",
                       "--num-colors", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_random_troupe_weighs_the_branches_past_n(monkeypatch):
    # the series line reads each color's constant words up to --order, past
    # --n, so the random table weighs their branches too: no sum of them is 0
    branch_sums = {}

    def keep_branch_sums(tau, kind, words):
        table = troupe.tree_sums(tau, kind, words)
        if kind == "branch":
            branch_sums.update(table)
        return table

    monkeypatch.setattr("troupes.cumulants.tree_sums", keep_branch_sums)
    code, out, _ = run("verify", "--troupe", "random", "--seed", "5", "--num-colors", "2",
                       "--n", "3", "--order", "7")
    assert code == 0 and out.endswith("PASS (14 words checked)\n")
    past_n = [(c,) * length for c in (0, 1) for length in range(4, 8)]
    assert all(branch_sums[word] != 0 for word in past_n)


def test_verify_unknown_troupe():
    code, _, err = run("verify", "--troupe", "bogus", "--n", "3")
    assert code == 2


def test_verify_reports_failure(monkeypatch):
    def one_disagreeing_report(tau, alphabet, max_len, order):
        checks = (
            ConditionCheck("classical", Fraction(1), Fraction(2), Fraction(3)),
            ConditionCheck("free", Fraction(5), Fraction(5), Fraction(5)),
            ConditionCheck("boolean", Fraction(7), Fraction(-1, 2), None),
        )
        return Verification((EquivalenceReport((0, 1), checks),), series_fail)

    monkeypatch.setattr("troupes.cumulants.equivalence_reports", one_disagreeing_report)
    # a failed word and then a failed series line are two failures
    for series_fail in (None, " [color 0 coefficient 4: transform=1 trees=2]"):
        code, out, _ = run("verify", "--troupe", "all", "--n", "2")
        assert code == 1
        lines = out.splitlines()
        # the enumeration, the partition formula and the bridge of each failed
        # check; the agreeing check keeps its plain cell
        assert lines[0] == ("FAIL word 0,1: classical=1 [from_moments=2 bridge=3] "
                            "free=5 boolean=7 [from_moments=-1/2]")
        assert lines[1].startswith("ok " if series_fail is None else "FAIL ")
        assert lines[-1] == "FAIL (1 words checked)"


# Each verify route, made off by one on one word through the module
# attribute that verify calls: the attribute, the patch, the word, and the
# kind whose cell changes, written from the word's cells as they were.
def _raise_sum(fn, word, family="dbpt"):
    def patched(tau, kind, words):
        table = fn(tau, kind, words)
        if kind == family:
            table[word] = table[word] + 1
        return table
    return patched


def _raise_table(fn, word, kind=None):
    def patched(*args):
        table = fn(*args)
        if kind is not None and table.kind != kind:
            return table
        return table._replace(table={**table.table, word: table.table[word] + 1})
    return patched


ROUTES = [
    ("tree_sums", lambda fn: _raise_sum(fn, (0, 0, 0)), "0,0,0", "classical",
     lambda v: f"classical={v - 1} [from_moments={v} bridge={v}]"),
    ("moments_to_cumulants", lambda fn: _raise_table(fn, (0, 0), "free"), "0,0", "free",
     lambda v: f"free={v} [from_moments={v + 1} bridge={v}]"),
    ("boolean_to_free", lambda fn: _raise_table(fn, (0, 0, 0)), "0,0,0", "free",
     lambda v: f"free={v} [from_moments={v} bridge={v + 1}]"),
    ("boolean_to_classical", lambda fn: _raise_table(fn, (0, 0)), "0,0", "classical",
     lambda v: f"classical={v} [from_moments={v} bridge={v + 1}]"),
]


@pytest.mark.parametrize("name, patch, word, kind, cell", ROUTES, ids=[r[0] for r in ROUTES])
def test_verify_names_the_route_that_is_off_by_one(monkeypatch, name, patch, word, kind, cell):
    argv = ("verify", "--troupe", "all", "--n", "3", "--order", "4")
    code, out, _ = run(*argv)
    assert code == 0
    line = next(x for x in out.splitlines() if x.startswith(f"ok word {word}: "))
    cells = dict(c.split("=") for c in line.split(": ")[1].split())
    monkeypatch.setattr(f"troupes.cumulants.{name}", patch(getattr(cumulants, name)))
    code, out, _ = run(*argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "FAIL (3 words checked)"
    assert "ok cumulant series identity to order 4" in lines
    # the one failed word: its cell names every route, the changed one off by one
    assert [x for x in lines if x.startswith("FAIL word")] == [
        f"FAIL word {word}: " + " ".join(cell(int(v)) if k == kind else f"{k}={v}"
                                         for k, v in cells.items())]


def test_verify_fails_the_series_line_on_one_coefficient(monkeypatch):
    def off_by_one(series):
        out = troupe_transform(series)
        return Series([c + 1 if n == 2 else c for n, c in enumerate(out.coeffs)])

    monkeypatch.setattr("troupes.cumulants.troupe_transform", off_by_one)
    code, out, _ = run("verify", "--troupe", "all", "--n", "3", "--order", "4")
    assert code == 1
    lines = out.splitlines()
    assert all(x.startswith("ok word") for x in lines[:3])
    assert lines[3:] == ["FAIL cumulant series identity to order 4", "FAIL (3 words checked)"]


@pytest.mark.parametrize("colors, color", [(1, 0), (2, 1)])
def test_verify_fails_the_series_line_on_one_tree_sum_past_n(monkeypatch, colors, color):
    # the plain-tree sum of one constant word longer than --n, off by one:
    # no word line reads it, so only the series line's tree comparison can fail;
    # C_(size-1) plain trees on size vertices, each of weight 1
    for n, size, trees in ((3, 5, 14), (1, 2, 1)):
        monkeypatch.setattr("troupes.cumulants.tree_sums",
                            _raise_sum(troupe.tree_sums, (color,) * size, family="bpt"))
        code, out, _ = run("verify", "--troupe", "all", "--num-colors", str(colors),
                           "--n", str(n), "--order", "6")
        assert code == 1
        lines = out.splitlines()
        words = len(list(iter_words(range(colors), n)))
        assert len(lines) == words + 2
        assert all(x.startswith("ok word") for x in lines[:words])
        assert lines[words:] == [
            f"FAIL cumulant series identity to order 6 [color {color} coefficient "
            f"{size - 1}: transform={trees} trees={trees + 1}]",
            f"FAIL ({words} words checked)"]


def test_verify_sums_each_family_in_one_table(monkeypatch):
    # the word lines and the series line past --n read one table per family,
    # whichever module attribute a caller reaches tree_sums through
    calls = []

    def counting(fn):
        def patched(tau, kind, *rest):
            calls.append(kind)
            return fn(tau, kind, *rest)
        return patched

    monkeypatch.setattr("troupes.troupe.tree_sums", counting(troupe.tree_sums))
    monkeypatch.setattr("troupes.cumulants.tree_sums", counting(cumulants.tree_sums))
    code, out, _ = run("verify", "--troupe", "all", "--num-colors", "2", "--n", "3",
                       "--order", "6")
    assert code == 0
    assert out.splitlines()[-2:] == ["ok cumulant series identity to order 6",
                                     "PASS (14 words checked)"]
    assert sorted(calls) == ["bpt", "branch", "dbpt"]


def test_transform_loads_only_the_ring_and_series_layers():
    # a fresh interpreter without site, so nothing but the command imports
    code = (
        "import sys\n"
        "from troupes import cli\n"
        "rc = cli.main(['transform', '--order', '6', '--coeffs', '0 + 1*q,1/2'])\n"
        "loaded = sorted(m for m in sys.modules if m == 'dataclasses' or m in {\n"
        "    'troupes.' + n for n in ('trees', 'troupe', 'cumulants', 'partitions',\n"
        "                             'families', 'peaks', 'bijections')})\n"
        "print(rc, loaded)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert proc.stdout.splitlines()[0] == (
        "0 + 1*q,1/2,0 + 0*q + 1*q^2,0 + 3/2*q,1/2 + 0*q + 0*q^2 + 2*q^3")


def test_importing_the_cli_loads_only_the_ring_layer():
    # every handler imports its own layers, so the module itself needs rings only
    code = (
        "import sys\n"
        "import troupes.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('troupes.')))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines() == ["['troupes.cli', 'troupes.rings']"]


def test_plot_and_verify_layers_load_no_dataclasses():
    # the records are NamedTuples, so no layer needs the dataclasses module
    code = (
        "import sys\n"
        "from troupes import bijections, cli, cumulants, families, peaks\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines() == ["False"]


def test_peaks_command():
    code, out, _ = run("peaks", "1,3,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "peaks: 2"
    assert len(lines) == 3


def test_peaks_rejects_non_permutation():
    code, _, err = run("peaks", "1,3")
    assert code == 2


def test_sort_command():
    assert run("sort", "2,3,1")[1] == "2,1,3\n"
    assert run("sort", "3 2 1")[1] == "1,2,3\n"
    assert run("sort", " 3 ,2  1\t")[1] == "1,2,3\n"


def test_list_spellings_print_the_comma_forms_stdout(tmp_path):
    """A troupe's color list and a moment-table word take whitespace as
    ``--colors`` and the permutations do (``colorset:0 1`` is in
    ``TREE_DIGESTS``)."""
    commas = "word 0 = 1\nword 1 = 2\nword 0,0 = 3\nword 0,1 = 1/2\nword 1,0 = 1/2\nword 1,1 = 5\n"
    spaced = commas.replace("0,0", "0 0").replace("0,1", "0 , 1").replace("1,0", "1\t0")
    (tmp_path / "commas").write_text(commas)
    (tmp_path / "spaced").write_text(spaced)
    flags = ("--num-colors", "2", "--n", "4", "--order", "4")
    pairs = [(("verify", "--troupe", "colorcount:0 , 1", *flags),
              ("verify", "--troupe", "colorcount:0,1", *flags)),
             (("cumulants", "--moments", str(tmp_path / "spaced")),
              ("cumulants", "--moments", str(tmp_path / "commas")))]
    for spelled, comma in pairs:
        want = run(*comma)
        assert want[0] == 0 and want[2] == "" and run(*spelled) == want


# one case per place the CLI reads an integer list, for each of an empty
# item, a negative item and a leading ``+``: the error line quotes the item
# and the list
LIST_ERRORS = [
    (("count", "--kind", "bpt", "--colors", "0,,1"),
     "troupes count: error: argument --colors: empty item in list '0,,1'"),
    (("count", "--kind", "bpt", "--colors", "0 -1"),
     "troupes count: error: argument --colors: negative item '-1' in list '0 -1'"),
    (("count", "--kind", "bpt", "--colors", "+1,0"),
     "troupes count: error: argument --colors: bad integer '+1' in list '+1,0'"),
    (("peaks", "2,1,"), "error: empty item in list '2,1,'"),
    (("sort", "2,-1"), "error: negative item '-1' in list '2,-1'"),
    (("peaks", "+1"), "error: bad integer '+1' in list '+1'"),
    (("verify", "--troupe", "colorset:0,,1"),
     "error: troupe 'colorset:0,,1': empty item in list '0,,1'"),
    (("verify", "--troupe", "colorcount:0 -1"),
     "error: troupe 'colorcount:0 -1': negative item '-1' in list '0 -1'"),
    (("verify", "--troupe", "colorset:+1"),
     "error: troupe 'colorset:+1': bad integer '+1' in list '+1'"),
    (("cumulants", "--moments", "word 0, = 1\n"),
     "error: {path}: line 1: empty item in list '0,'"),
    (("cumulants", "--moments", "word 0 = 1\nword 0 -1 = 1\n"),
     "error: {path}: line 2: negative item '-1' in list '0 -1'"),
    (("cumulants", "--moments", "word +1 = 1\n"),
     "error: {path}: line 1: bad integer '+1' in list '+1'"),
]


@pytest.mark.parametrize("argv, message", LIST_ERRORS, ids=[" ".join(a) for a, _ in LIST_ERRORS])
def test_list_errors_quote_the_item_and_the_list(argv, message, tmp_path):
    path = tmp_path / "moments.txt"
    if argv[0] == "cumulants":
        path.write_text(argv[2])
        argv = (*argv[:2], str(path))
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == message.format(path=path)


def test_examples_command():
    code, out, _ = run("examples", "gamma_minus_one", "--order", "4")
    assert code == 0
    assert "# moments" in out
    assert "# classical cumulants" in out
    assert "4: -6" in out
    assert "# free cumulants" in out
    assert "# boolean cumulants" in out


def test_examples_poly_family():
    code, out, _ = run("examples", "two_atom", "--order", "3")
    assert code == 0
    assert "0 + -1*q" in out


def test_examples_unknown():
    code, _, err = run("examples", "weird")
    assert code == 2


def test_output_is_deterministic():
    for argv in (
        ("enumerate", "--kind", "bpt", "--n", "4"),
        ("verify", "--troupe", "motzkin", "--n", "4"),
        ("examples", "secant", "--order", "6"),
    ):
        assert run(*argv) == run(*argv)


PARTITION_KINDS = ("partition", "interval", "noncrossing", "nc-irreducible",
                   "nc-irreducible-min2", "d-permutations")


# each malformed number, one per place the CLI reads one, and the item its
# error line quotes: integers are ASCII ``-?[0-9]+`` and rationals ``p`` or
# ``p/q`` as the output writes them, so digit underscores, a leading ``+``,
# non-ASCII digits, exponents and decimal points are all refused
MALFORMED_NUMBERS = {
    ("verify", "--troupe", "all", "--n", "\u0663"): "\u0663",
    ("verify", "--troupe", "all", "--order", "1_0"): "1_0",
    ("verify", "--troupe", "all", "--seed", "+5"): "+5",
    ("verify", "--troupe", "colorset:0_1"): "0_1",
    ("verify", "--troupe", "colorcount:\u0661"): "\u0661",
    ("verify", "--troupe", "rightmono:1e0,1"): "1e0",
    ("transform", "--coeffs=0.5"): "0.5",
    ("transform", "--coeffs=1_0"): "1_0",
    ("transform", "--coeffs=q^\u0661"): "\u0661",
    ("transform", "--coeffs=2*q^"): "",
    ("cumulants", "--moments", "{arabic_color_table}"): "\u0660",
    ("cumulants", "--moments", "{exponent_moment_table}"): "1e0",
}


@pytest.mark.parametrize("argv", [
    *(["count", "--kind", kind, "--n", "-1"] for kind in ("bpt", "branch", "dbpt")),
    ["enumerate", "--kind", "branch", "--n", "-3"],
    *(["count", "--kind", kind, "--n", "0"] for kind in PARTITION_KINDS),
    ["enumerate", "--kind", "d-permutations", "--n", "-2"],
    ["enumerate", "--kind", "bpt", "--colors", ""],
    ["enumerate", "--kind", "bpt", "--colors", "0,,1"],
    ["enumerate", "--kind", "bpt", "--colors=,0"],
    ["sort", "2,1,"],
    ["peaks", "1,,2"],
    ["enumerate", "--kind", "bpt", "--colors", "0_1"],
    ["sort", "+2,1"],
    ["count", "--kind", "bpt", "--colors", "\u0660,\u0661"],
    ["transform", "--coeffs", "1,2", "--order", "0"],
    ["transform", "--coeffs", "1,2", "--order", "-3"],
    ["examples", "secant", "--order", "-2"],
    ["examples", "secant", "--order", "0"],
    ["verify", "--troupe", "all", "--n", "0"],
    ["verify", "--troupe", "all", "--num-colors", "0"],
    ["verify", "--troupe", "all", "--order", "0"],
    ["verify", "--troupe", "rightmono:1/0,1"],
    ["cumulants", "--moments", "{missing_word_table}"],
    ["cumulants", "--moments", "{repeated_word_table}"],
    ["count", "--kind", "dbpt", "--colors=0,-1,2"],
    ["enumerate", "--kind", "bpt", "--colors=-1"],
    ["verify", "--troupe", "colorset:-1"],
    ["verify", "--troupe", "colorset:0 1"],
    ["verify", "--troupe", "colorcount:x"],
    ["verify", "--troupe", "colorcount:-2"],
    ["cumulants", "--moments", "{negative_color_table}"],
    ["verify", "--troupe", "colorset:7", "--n", "3"],
    ["verify", "--troupe", "colorcount:7", "--n", "3"],
    *(["verify", "--troupe", troupe, "--n", "3"] for troupe in ("all:x", "full:1", "motzkin:0")),
    ["count", "--kind", "partition", "--n", "3", "--colors", "0,1"],
    ["count", "--kind", "d-permutations", "--n", "3", "--colors", "0,1"],
    *map(list, MALFORMED_NUMBERS),
], ids=" ".join)
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    bad_item = MALFORMED_NUMBERS.get(tuple(argv))
    tables = {"missing_word_table": "word 0 = 1\nword 0,0,0 = 2\n",  # no moment for 0,0
              "repeated_word_table": "word 0 = 1\nword 0 = 5\n",  # two moments for 0
              "negative_color_table": "word -1 = 1\n",  # colors are nonnegative
              "arabic_color_table": "word \u0660 = 1\n",
              "exponent_moment_table": "word 0 = 1e0\n"}
    for name, text in tables.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [a.format(**{name: tmp_path / name for name in tables}) for a in argv]
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in err and "invalid literal" not in err
    if bad_item is not None:  # the error line quotes the malformed number
        assert repr(bad_item) in errors[0]
    spec = dict(zip(argv, argv[1:])).get("--troupe", "")
    if spec.startswith("color"):  # the message quotes the troupe spec
        assert repr(spec) in err
    messages = {  # J reads as any integer list does, then meets the alphabet
        "colorset:0 1": "troupe 'colorset:0 1' names colors [1] outside 0..0 (--num-colors 1)",
        "colorcount:x": "troupe 'colorcount:x': bad integer 'x' in list 'x'"}
    if spec in messages:
        assert err == f"error: {messages[spec]}\n"


def test_huge_order_exits_2_out_of_memory():
    # in a fresh interpreter under a 256 MB address-space limit, as CI's
    # `ulimit -v` line, so padding the series to the order never touches
    # real memory
    code = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, hard))\n"
        "from troupes import cli\n"
        "sys.exit(cli.main(['transform', '--coeffs', '1,2', '--order', '1000000000000']))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_usage_error_exit_code():
    code, _, _ = run("no-such-command")
    assert code == 2
    code, _, _ = run()
    assert code == 2


def test_transform_output_parses_as_series():
    # branch coefficients beyond the given ones pad with zero, so the size-4
    # coefficient counts Motzkin trees minus the one branch of size 4
    _, out, _ = run("transform", "--coeffs", "1,1,1", "--order", "5")
    values = out.strip().split(",")
    assert len(values) == 4
    from troupes.rings import parse_ring_elem

    assert [parse_ring_elem(v) for v in values] == [1, 1, 2, 3]


def test_transform_accepts_bare_q():
    bare = run("transform", "--order", "4", "--coeffs", "q,1")
    spelled = run("transform", "--order", "4", "--coeffs", "0 + 1*q,1")
    assert bare[0] == 0 and bare == spelled


def test_examples_secant_at_default_order():
    code, out, _ = run("examples", "secant")
    assert code == 0
    assert "\n12: 353792\n" in out.split("# classical cumulants")[1]


# sha256 prefixes of ``examples <name>`` stdout at the default order, recorded
# while the conversions still summed over whole partition lattices
EXAMPLE_DIGESTS = {
    "gamma_minus_one": "26b481cb5ce0d8bd",
    "shifted_exponential": "690766e15cd95a6a",
    "two_atom": "83a4e2cc9965fe1d",
    "geometric_like": "7aeac72fa93d4031",
    "secant": "1bd46117d3e63721",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_examples_match_parent_digests(name):
    code, out, _ = run("examples", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == EXAMPLE_DIGESTS[name]


# sha256 prefixes of the stdout of tree commands, recorded while vertices were
# still ``NamedTuple`` records; the peaks permutation is
# ``random.Random(20).sample(range(1, 13), 12)``.  Then verify runs as CI
# records them: at the lowest order the series check takes, on a seeded
# two-colour table whose size-2 branches the words of length 3 read, and on
# a two-colour color set in both of its list spellings.
TREE_DIGESTS = {
    ("enumerate", "--kind", "bpt", "--colors", "0,1,1,0,2,1"): "5e6109645d8f26d3",
    ("enumerate", "--kind", "branch", "--colors", "0,1,1,0,2,1"): "6b2fd2b7b87a4f26",
    ("enumerate", "--kind", "dbpt", "--colors", "0,1,1,0,2,1"): "4394e4ac3a95fbda",
    ("peaks", "12,11,3,5,2,7,10,9,8,1,4,6"): "bca931c677d2a3f2",
    ("verify", "--troupe", "all", "--n", "1", "--order", "3"): "e0a1e5becdf0af8f",
    ("verify", "--troupe", "random", "--seed", "5", "--num-colors", "2", "--n", "3",
     "--order", "9"): "7910ba7e71acb4b0",
    **{("verify", "--troupe", spec, "--num-colors", "2", "--n", "6", "--order", "6"):
       "a174506b56da56c1" for spec in ("colorset:0,1", "colorset:0 1")},
}


@pytest.mark.parametrize("argv", sorted(TREE_DIGESTS), ids=" ".join)
def test_tree_commands_match_recorded_digests(argv):
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == TREE_DIGESTS[argv]


@pytest.mark.parametrize("argv", [["enumerate", "--kind", "noncrossing", "--n", "1500"],
                                  ["count", "--kind", "partition", "--n", "1200"]])
def test_sizes_past_the_recursion_limit_exit_2_without_traceback(argv):
    # in a fresh interpreter, at its own recursion limit
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "troupes", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: input too large: maximum recursion depth exceeded\n"


@pytest.mark.parametrize("values", [range(1, 1501), range(1500, 0, -1)],
                         ids=["increasing", "decreasing"])
def test_peaks_on_a_long_permutation(values):
    # a monotone permutation has no peak and one factor, a branch of 1,500
    # vertices, which must encode without running out of stack
    code, out, err = run("peaks", ",".join(map(str, values)))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "peaks: " and len(lines) == 2
    assert lines[1].count("(") == 1500


def test_integer_past_int_digit_limit_exits_2():
    # CPython 3.11+ refuses to convert a string of more than 4,300 digits
    code, out, err = run("peaks", "1," + "9" * 5000)
    assert code == 2 and out == "" and "Traceback" not in err


# -- fuzzing the CLI contract: exit 0 on success, 1 only for a failed
# verification, 2 on bad input, and never an uncaught exception

# an integer is ASCII ``-?[0-9]+``; int() would read each of these
MALFORMED_INTS = ["\u0663", "1_0", "+1"]
INT = re.compile(r"-?[0-9]+")


def _ints(least, most):
    """An integer flag's value: one of ``least..most``, or a malformed integer."""
    return st.sampled_from([*map(str, range(least, most + 1)), *MALFORMED_INTS])


SMALL = _ints(-2, 5)
# a list's items are separated by a comma, with optional whitespace around
# it, or by whitespace alone; an empty item ("0,,1", ",0", "1,"), "+1" or
# "0_1" is a malformed list
LIST_SEP = re.compile(r"\s*,\s*|\s+")
SEPARATORS = st.sampled_from([",", " ", " , ", ", ", "\t"])


def _joined(items):
    """A list's text: the drawn items, each pair parted by a drawn separator."""
    return st.tuples(items, SEPARATORS).map(lambda pair: pair[1].join(pair[0]))


def _items(text):
    """A list's items, as the README's grammar splits them."""
    return LIST_SEP.split(text.strip())


WORD = _joined(st.lists(st.one_of(st.integers(-1, 4).map(str),
                                  st.sampled_from(["", "+1", "0_1"])), max_size=5))
WELL_FORMED_RINGS = ["0", "1", "-2", "3/4", "q", "q^2", "2*q", "0 + 1*q"]
WELL_FORMED_RING = st.sampled_from(WELL_FORMED_RINGS)
RING = st.one_of(WELL_FORMED_RING, st.sampled_from(["1/0", "1*q^-1", "zebra", "", "0.5", "1e1",
                                                    "q^\u0661"]))
KINDS = st.sampled_from(["bpt", "branch", "dbpt", "partition", "interval", "noncrossing",
                         "nc-irreducible", "nc-irreducible-min2", "d-permutations",
                         "bogus"])
TROUPES = st.sampled_from(["all", "full", "motzkin", "colorset:0", "colorset:x",
                           "colorset:0,-1", "colorset:0,2", "colorcount:1", "colorcount:-2",
                           "colorset:0_1", "colorcount:\u0661", "rightmono:q,1",
                           "rightmono:1/0,1", "rightmono:1e0,1", "rightmono:1", "random",
                           "bogus", "all:x", "full:1", "motzkin:0", "colorset:0 1",
                           "colorcount:0 , 1", "colorset:0,,1", "colorcount:0 -1",
                           "colorset:+1"])
PERMUTATION = _joined(st.integers(1, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(lambda xs: [*map(str, xs)]))
NAMES = st.sampled_from(["gamma_minus_one", "shifted_exponential", "two_atom",
                         "geometric_like", "secant", "bogus"])


def _flags(draw, options):
    """Each flag present or not; a value drawn from its strategy."""
    argv = []
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["count", "enumerate", "transform", "cumulants",
                                    "verify", "peaks", "sort", "examples"]))
    if command in ("count", "enumerate"):
        return [command, "--kind", draw(KINDS),
                *_flags(draw, [("--n", SMALL), ("--colors", WORD)])]
    if command == "transform":
        coeffs = ",".join(draw(st.lists(RING, min_size=1, max_size=4)))
        return [command, f"--coeffs={coeffs}",
                *_flags(draw, [("--order", _ints(-1, 7)),
                               ("--kind", st.sampled_from(["forward", "inverse", "up"]))])]
    if command == "cumulants":
        if draw(st.booleans()):  # a dense table, mostly well formed
            num_colors, max_len = draw(st.integers(1, 2)), draw(st.integers(1, 3))
            words = [",".join(map(str, w)) for w in iter_words(range(num_colors), max_len)]
            lines = [(w, draw(RING if draw(st.integers(0, 9)) == 0 else WELL_FORMED_RING))
                     for w in words]
        else:
            lines = draw(st.lists(st.tuples(WORD, RING), max_size=8))
        return [command, "--moments",
                "".join(f"word {w} = {v}\n" for w, v in lines)]  # a file's contents
    if command == "verify":
        return [command, "--troupe", draw(TROUPES),
                *_flags(draw, [("--n", _ints(-1, 4)), ("--order", _ints(-1, 6)),
                               ("--seed", _ints(0, 3)), ("--num-colors", _ints(-1, 2))])]
    if command in ("peaks", "sort"):
        return [command, draw(st.one_of(WORD, PERMUTATION))]
    # an explicit order keeps each run short; -1 and 0 must exit 2
    return [command, draw(NAMES), "--order", draw(_ints(-1, 20))]


def _has_bad_color(argv):
    """Whether ``argv`` names a color the command must reject: a negative
    entry in a color list or moment-table word (WORD draws -1, so ``--colors``
    and table words get one often), ``--colors`` on a kind that takes no color
    word, or a troupe color outside ``range(--num-colors)``."""
    if "--colors" in argv:
        return ("-" in argv[argv.index("--colors") + 1]
                or argv[2] not in ("bpt", "branch", "dbpt"))
    if argv[0] == "verify":
        head, _, named = argv[2].partition(":")
        if head not in ("colorset", "colorcount"):
            return False
        num_colors = dict(zip(argv, argv[1:])).get("--num-colors", "1")
        if not INT.fullmatch(num_colors):
            return False  # a malformed number: _has_bad_number's case
        return not all(INT.fullmatch(c) and 0 <= int(c) < int(num_colors)
                       for c in _items(named))
    if argv[0] == "cumulants":
        return any("-" in line.partition("=")[0] for line in argv[2].splitlines())
    return False


def _has_bad_number(argv):
    """Whether ``argv`` holds a malformed number: an integer flag's value that
    is not ``-?[0-9]+``, or a ``transform`` coefficient, ``rightmono``
    parameter, moment-table word item or moment-table value outside the
    well-formed draws."""
    flags = dict(zip(argv, argv[1:]))
    if not all(INT.fullmatch(flags[flag]) for flag in ("--n", "--order", "--seed", "--num-colors")
               if flag in flags):
        return True
    if argv[0] == "transform":
        return any(c not in WELL_FORMED_RINGS for c in argv[1].partition("=")[2].split(","))
    if argv[0] == "verify" and argv[2].startswith("rightmono:"):
        return any(t not in WELL_FORMED_RINGS for t in argv[2].partition(":")[2].split(","))
    if argv[0] == "cumulants":
        for line in argv[2].splitlines():
            word, _, value = line[len("word "):].partition(" = ")
            if value not in WELL_FORMED_RINGS or not all(map(INT.fullmatch, _items(word))):
                return True
    return False


# sizes whose partition growth recurses deeper than the interpreter allows;
# Hypothesis lets a test run 2,000 frames deeper, so in-process they pass that
TOO_DEEP = [["enumerate", "--kind", "noncrossing", "--n", "5000"],
            ["count", "--kind", "partition", "--n", "4000"]]


@settings(deadline=None, max_examples=150)
@given(cli_argv())
@example(TOO_DEEP[0])
@example(TOO_DEEP[1])
def test_cli_contract_holds_under_fuzzing(argv):
    bad_input = _has_bad_color(argv) or _has_bad_number(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "cumulants":
            path = os.path.join(tmp, "moments.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(argv[2])
            argv = argv[:2] + [path]
        code, out, err = run(*argv)
    assert "Traceback" not in err and "invalid literal" not in err
    if bad_input or argv[0] == "verify" and argv[2] in ("all:x", "full:1", "motzkin:0"):
        assert code == 2
    if argv in TOO_DEEP:
        assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1
    if argv[0] == "verify":
        assert code in (0, 1, 2)
        assert (code == 1) == any(line.startswith("FAIL") for line in out.splitlines())
    else:
        assert code in (0, 2)
