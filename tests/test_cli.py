import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from troupes import cli
from troupes.trees import parse_tree


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


def test_count_colored():
    code, out, _ = run("count", "--kind", "bpt", "--colors", "0,1,0")
    assert code == 0 and out == "2\n"


def test_enumerate_round_trips_tree_format():
    code, out, _ = run("enumerate", "--kind", "bpt", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        parsed = parse_tree(line)
        assert parsed.size == 3


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


def test_verify_unknown_troupe():
    code, _, err = run("verify", "--troupe", "bogus", "--n", "3")
    assert code == 2


def test_verify_reports_failure(monkeypatch):
    from troupes.cumulants import ConditionCheck, EquivalenceReport
    from fractions import Fraction

    def fake_verify_all(tau, alphabet, max_len):
        bad = ConditionCheck("classical", Fraction(1), Fraction(2), None)
        return [EquivalenceReport((0,), (bad,))]

    monkeypatch.setattr(cli, "equivalence_reports", fake_verify_all)
    code, out, _ = run("verify", "--troupe", "all", "--n", "2")
    assert code == 1
    assert "FAIL" in out


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


@pytest.mark.parametrize("argv", [
    *(["count", "--kind", kind, "--n", "-1"] for kind in ("bpt", "branch", "dbpt")),
    ["enumerate", "--kind", "branch", "--n", "-3"],
    *(["count", "--kind", kind, "--n", "0"] for kind in PARTITION_KINDS),
    ["enumerate", "--kind", "d-permutations", "--n", "-2"],
    ["enumerate", "--kind", "bpt", "--colors", ""],
    ["transform", "--coeffs", "1,2", "--order", "0"],
    ["transform", "--coeffs", "1,2", "--order", "-3"],
    ["examples", "secant", "--order", "-2"],
    ["examples", "secant", "--order", "0"],
    ["verify", "--troupe", "all", "--n", "0"],
    ["verify", "--troupe", "all", "--num-colors", "0"],
    ["verify", "--troupe", "all", "--order", "0"],
    ["verify", "--troupe", "rightmono:1/0,1"],
    ["cumulants", "--moments", "{missing_word_table}"],
], ids=" ".join)
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    table = tmp_path / "moments.txt"
    table.write_text("word 0 = 1\nword 0,0,0 = 2\n")  # no moment for 0,0
    argv = [a.format(missing_word_table=table) for a in argv]
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert "error:" in err
    assert "Traceback" not in err


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
