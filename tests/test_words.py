import pytest

from wordcount import groups, words
from wordcount.cli import main
from wordcount.errors import (ArityMismatch, ArityTooSmall, EmptyWord,
                              WordSyntaxError)
from wordcount.words import evaluate, make_word, parse, wn


def test_parse_simple():
    w = parse("x1 x2^-1")
    assert w.arity == 2
    assert w.letters == ((1, 1), (2, -1))


def test_parse_commutator_sugar():
    w = parse("[x1,x2]")
    assert w.letters == ((1, -1), (2, -1), (1, 1), (2, 1))
    assert parse("[[x1,x2],x3]") == wn(3)


def test_parse_parenthesized_power():
    assert parse("(x1 x2)^2") == parse("x1 x2 x1 x2")
    assert parse("(x1)^-1") == parse("x1^-1")
    assert parse("[x1,x2]^2") == parse("[x1,x2] [x1,x2]")


def test_free_reduction():
    assert parse("x1 x1^2 x2").letters == ((1, 3), (2, 1))
    with pytest.raises(EmptyWord):
        parse("x1 x1^-1")
    with pytest.raises(EmptyWord):
        make_word([(1, 1), (1, -1)])


def test_contiguity():
    with pytest.raises(WordSyntaxError):
        parse("x1 x3")
    with pytest.raises(WordSyntaxError):
        parse("x2")


def test_syntax_errors_carry_position():
    for bad in ["", "x1^", "x1 )", "[x1 x2]", "x0", "x1^^2"]:
        with pytest.raises(WordSyntaxError) as err:
            parse(bad)
        assert err.value.position is not None


def test_wn_recursion():
    assert wn(2) == parse("[x1,x2]")
    assert wn(3).arity == 3
    assert len(wn(3).letters) == 10
    assert wn(4) == parse("[[[x1,x2],x3],x4]")
    with pytest.raises(ArityTooSmall):
        wn(1)


def test_evaluate():
    S3 = groups.builtin("symmetric", 3)
    w2 = wn(2)
    for g in range(6):
        assert evaluate(w2, S3, (g, g)) == 0
    # hand computation: [(123),(12)] = (123)
    g123 = next(g for g in range(6) if S3.label(g) == "(1, 2, 0)")
    g12 = next(g for g in range(6) if S3.label(g) == "(1, 0, 2)")
    assert evaluate(w2, S3, (g123, g12)) == g123
    with pytest.raises(ArityMismatch):
        evaluate(w2, S3, (0,))


def test_commutator_evaluates_to_the_group_commutator():
    # words.commutator is the one rule for [u, v]: the parser, wn and
    # formulas.bracket_word all build their brackets through it
    from wordcount.formulas import bracket_word

    S3 = groups.builtin("symmetric", 3)
    u, v = parse("x1 x2^2"), parse("x2 x1^-1 x2")
    assert words.commutator([(1, 1)], [(2, 3)]) == [(1, -1), (2, -3),
                                                    (1, 1), (2, 3)]
    w = make_word(words.commutator(list(u.letters), list(v.letters)))
    for a in range(6):
        for b in range(6):
            assert evaluate(w, S3, (a, b)) == S3.commutator(
                evaluate(u, S3, (a, b)), evaluate(v, S3, (a, b)))
    assert parse("[x1 x2^2, x2 x1^-1 x2]") == w
    assert wn(3) == make_word(words.commutator(list(wn(2).letters),
                                               [(3, 1)]))
    assert bracket_word(u, v) == parse("[x1 x2^2, x4 x3^-1 x4]")


def test_evaluate_abelian_commutators_trivial():
    C6 = groups.builtin("cyclic", 6)
    for a in range(6):
        for b in range(6):
            assert evaluate(wn(2), C6, (a, b)) == 0


def test_unreduced_and_reduced_words_agree():
    G = groups.builtin("dihedral", 12)
    w_red = parse("x1 x2")
    w_unred = parse("x1 x2 x2^-1 x2")
    for a in range(12):
        for b in range(12):
            assert evaluate(w_red, G, (a, b)) == evaluate(w_unred, G, (a, b))


def test_str_roundtrip():
    w = parse("[x1,x2] x3^2")
    assert parse(str(w)) == w


def _bracketed_wn(n):
    text = "x1"
    for i in range(2, n + 1):
        text = f"[{text},x{i}]"
    return text


@pytest.mark.parametrize("text", ["(x1 x2)^2147483647", _bracketed_wn(26),
                                  "(x1 x2)^32769",
                                  " ".join(["(x1 x2)^30000"] * 3)])
def test_expansion_past_the_letter_bound_is_refused(text):
    with pytest.raises(WordSyntaxError, match="more than 65536"):
        parse(text)


def test_merged_exponent_past_the_bound_is_refused():
    # each power is in range, the reduced word's merged one is not
    assert words.MAX_EXPONENT == 2**31 - 1
    with pytest.raises(WordSyntaxError,
                       match="^exponent 4294967294 out of range$"):
        parse("x1^2147483647 x1^2147483647")


def test_words_up_to_the_letter_bound_parse():
    assert words.MAX_LETTERS == 2**16
    assert len(parse("(x1 x2)^32768").letters) == words.MAX_LETTERS
    assert parse(_bracketed_wn(15)) == wn(15)
    text = " ".join(f"x{i}" for i in range(1, 1501))
    assert parse(text).arity == 1500


def test_cli_refuses_an_oversize_expansion_in_one_line(capsys):
    code = main(["count", "--group", "builtin:cyclic(1)",
                 "--word", "(x1 x2)^2147483647"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: word expands to 4294967294 letters, "
                            "more than 65536 (at position 18)\n")
