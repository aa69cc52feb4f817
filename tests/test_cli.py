import hashlib
import io
from pathlib import Path

from gramgrow.cli import EXIT_OK, EXIT_RESOURCE, Session, cmd_eval, main, run_repl
from gramgrow import resources
from gramgrow.resources import data_path


def fresh_session():
    out = io.StringIO()
    session = Session(out=out)
    session.load_bundle("demo")
    return session, out


def run_script(session, lines):
    return run_repl(session, lines)


def test_flags_table_six_lines():
    session, out = fresh_session()
    run_script(session, ["flags", "quit"])
    lines = out.getvalue().splitlines()
    start = lines.index("Current flag settings:")
    table = lines[start + 2 : start + 8]
    names = [row.split(":")[0].strip() for row in table]
    assert names == ["Learning", "Type checking", "LP rules", "HFC", "SBL", "Training"]


def test_learning_trace_lines():
    session, out = fresh_session()
    run_script(session, ["Sam chases the happy cat", "quit"])
    text = out.getvalue()
    assert "1 rule(s) acquired." in text
    assert "1 parse(s)" in text
    acquired = text.index("1 rule(s) acquired.")
    parses = text.index("1 parse(s)")
    assert acquired < parses


def test_parses_display_nested():
    session, out = fresh_session()
    run_script(session, ["Sam chases the happy cat", "!*parses*", "quit"])
    text = out.getvalue()
    assert '(("S1" ((|Sam|)' in text
    assert "(|cat|)" in text


def test_zero_parse_trace():
    session, out = fresh_session()
    run_script(session, ["Sam chases happy the cat", "quit"])
    text = out.getvalue()
    assert "0 parse(s)" in text
    assert "rule(s) acquired" not in text


def test_unknown_command_prints_usage():
    session, out = fresh_session()
    run_script(session, ["load-grammar", "quit"])
    assert "commands:" in out.getvalue()


def test_resource_error_keeps_session_alive():
    session, out = fresh_session()
    run_script(session, ["load-grammar /nonexistent/file", "Sam chases the cat", "quit"])
    text = out.getvalue()
    assert "error:" in text
    assert "1 parse(s)" in text


def test_flag_toggle_round_trip():
    session, out = fresh_session()
    run_script(
        session,
        [
            "Sam chases the happy cat",
            "set lp off",
            "set lp on",
            "quit",
        ],
    )
    first = out.getvalue()
    session2, out2 = fresh_session()
    run_script(session2, ["Sam chases the happy cat", "quit"])
    assert out2.getvalue() in first


def test_repl_byte_identical_across_runs():
    script = [
        "flags",
        "Sam chases the happy cat",
        "!*parses*",
        "Sam chases the cat down the road",
        "quit",
    ]
    outputs = []
    for _ in range(2):
        session, out = fresh_session()
        run_script(session, script)
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]


def _survives(line):
    session, out = fresh_session()
    code = run_script(session, [line, "Sam chases the cat", "quit"])
    text = out.getvalue()
    return code == EXIT_OK and "error:" in text and "1 parse(s)" in text


def test_unbalanced_quote_keeps_session_alive():
    assert _survives("Sam don't chases")


def test_undeclared_nonhead_feature_keeps_session_alive(tmp_path):
    model = tmp_path / "typo.model"
    model.write_text("nonhead NTYPEE CASE\n")
    assert _survives("load-model %s" % model)


def test_sentence_with_apostrophe_parses(tmp_path):
    with open(data_path("demo.lexicon"), encoding="utf-8") as f:
        entries = f.read()
    lexicon = tmp_path / "apostrophe.lexicon"
    lexicon.write_text(entries + "lex Sam's : [N +, V -, BAR 2, DET -, PER 3, PLU -, PRD -, NTYPE NAME]\n")
    session, out = fresh_session()
    run_script(session, ["load-lexicon %s" % lexicon, "Sam's chases the cat", "quit"])
    text = out.getvalue()
    assert "error:" not in text and "1 parse(s)" in text


def test_command_with_unbalanced_quote_keeps_session_alive():
    assert _survives('load-lexicon "x')


def test_bad_limits_keep_session_alive():
    assert _survives("limits x 3")


def test_nonpositive_limits_keep_session_alive():
    assert _survives("limits -1 3")


def test_bad_eval_option_keeps_session_alive():
    assert _survives("eval --bogus")


def test_nonpositive_eval_k_keeps_session_alive():
    assert _survives("eval --k 0")


def test_bad_eval_random_keeps_session_alive():
    for line in ("eval --random 3 0", "eval --random 3 -2", "eval --random -3 2"):
        assert _survives(line)


def test_cyclic_tag_in_lexicon_keeps_session_alive(tmp_path):
    lexicon = tmp_path / "cyclic.lexicon"
    lexicon.write_text("lex Sam : [N #1 = [N #1]]\n")
    assert _survives("load-lexicon %s" % lexicon)


def _rejects_lexicon_line(tmp_path, line):
    """A lexicon with this line is refused by the REPL and by gramgrow eval."""
    lexicon = tmp_path / "bad.lexicon"
    lexicon.write_text(line + "\n")
    argv = ["eval", "--features", str(data_path("demo.features")), "--grammar",
            str(data_path("demo.grammar")), "--lexicon", str(lexicon), "--random", "12", "3"]
    return _survives("load-lexicon %s" % lexicon) and main(argv) == EXIT_RESOURCE


def test_lexicon_entry_without_a_terminal_is_rejected(tmp_path, capsys):
    assert _rejects_lexicon_line(tmp_path, "lex : [N +, V -, BAR 0]")
    assert capsys.readouterr().err.startswith("error:")


def test_lexicon_entry_with_two_terminal_words_is_rejected(tmp_path, capsys):
    assert _rejects_lexicon_line(tmp_path, "lex the big : [N +, V -, BAR 0]")
    assert capsys.readouterr().err.startswith("error:")


def test_set_sbl_requires_triples():
    session, out = fresh_session()
    run_script(session, ["set sbl on", "quit"])
    assert "error:" in out.getvalue()


def test_commands_without_their_resources_keep_session_alive(tmp_path):
    triples = tmp_path / "empty.triples"
    triples.write_text("params delta 0.001 omega 0.35\n")
    features = "load-features %s" % data_path("demo.features")
    cases = [
        ([], "load-model %s" % data_path("demo.model")),
        ([], "load-lexicon %s" % data_path("demo.lexicon")),
        ([], "load-triples %s" % triples),
        ([], "load-paraphrase %s" % data_path("demo.labels")),
        ([features, "load-triples %s" % triples], "refine-grammar"),
        ([features, "load-triples %s" % triples], "save-learnt %s" % (tmp_path / "out.grammar")),
        ([], "eval --random 2 3"),
        ([features, "load-grammar %s" % data_path("demo.grammar")], "eval --random 2 3"),
    ]
    for setup, line in cases:
        out = io.StringIO()
        session = Session(out=out)
        assert run_script(session, setup + [line, "flags", "quit"]) == EXIT_OK
        text = out.getvalue()
        assert text.count("error:") == 1, (line, text)
        assert "Current flag settings:" in text.split("error:")[1], line
    # the loaders refused before reading: nothing was loaded unvalidated
    session = Session(out=io.StringIO())
    run_script(session, [line for _, line in cases[:4]] + ["quit"])
    assert (session.model, session.lexicon, session.store, session.labels) == (None,) * 4


# -- eval -----------------------------------------------------------------------


def test_cmd_eval_basics(tmp_path):
    session, out = fresh_session()
    test_file = tmp_path / "test.corpus"
    test_file.write_text("Sam chases the cat\nSam chases the happy cat\n")
    report = cmd_eval(session, test_path=str(test_file))
    assert report.undergen_fraction == 0.5


def test_cmd_eval_empty_test_is_undefined(tmp_path):
    session, _ = fresh_session()
    test_file = tmp_path / "empty.corpus"
    test_file.write_text("")
    report = cmd_eval(session, test_path=str(test_file))
    assert report.undergen_fraction is None
    assert any(line.startswith("undergen\tundefined") for line in report.lines())


def test_cmd_eval_single_parseable_line(tmp_path):
    session, _ = fresh_session()
    test_file = tmp_path / "one.corpus"
    test_file.write_text("Sam chases the cat\n")
    report = cmd_eval(session, test_path=str(test_file))
    assert report.undergen_fraction == 1.0


def test_cmd_eval_reports_byte_identical(tmp_path):
    test_file = tmp_path / "test.corpus"
    test_file.write_text("Sam chases the cat\n")
    texts = []
    for run in range(2):
        session, _ = fresh_session()
        prefix = str(tmp_path / ("run%d" % run))
        cmd_eval(session, test_path=str(test_file), random_count=20, random_length=4,
                 seed=99, out_prefix=prefix)
        texts.append((Path(prefix + ".tsv").read_text(), Path(prefix + ".txt").read_text()))
    assert texts[0] == texts[1]


def test_main_eval_exit_codes(tmp_path):
    test_file = tmp_path / "test.corpus"
    test_file.write_text("Sam chases the cat\n")
    code = main(
        ["eval", "--bundle", "demo", "--test", str(test_file), "--out", str(tmp_path / "r")]
    )
    assert code == EXIT_OK
    code = main(["eval", "--bundle", "demo", "--test", str(tmp_path / "missing.corpus")])
    assert code == 2


def test_main_eval_rejects_bad_limits_and_k(capsys):
    for args in (["--limits", "-1", "5"], ["--limits", "x", "5"], ["--k", "0"], ["--k", "-1"]):
        assert main(["eval", "--bundle", "demo"] + args) == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("error:")


def test_main_eval_rejects_bad_random(capsys):
    for args in (["3", "0"], ["3", "-2"], ["-3", "2"]):
        assert main(["eval", "--bundle", "demo", "--random"] + args) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--random" in err


def test_main_eval_learnt_without_grammar(tmp_path, capsys):
    learnt = tmp_path / "learnt.grammar"
    learnt.write_text("")
    assert main(["eval", "--learnt", str(learnt)]) == EXIT_RESOURCE
    assert capsys.readouterr().err == "error: load a grammar first\n"


def test_main_eval_with_the_claws_bundle(capsys):
    # claws ships features, a lexicon and labels, but no grammar or model
    assert main(["eval", "--bundle", "claws", "--random", "2", "3"]) == EXIT_OK
    assert "Generated 0.0% of the random strings." in capsys.readouterr().out


def test_load_bundle_replaces_every_resource_or_none(tmp_path, monkeypatch):
    session, out = fresh_session()
    demo = session.registry
    # a bundle whose lexicon fails after its features and grammar have loaded
    for ext in ("features", "grammar"):
        (tmp_path / ("broken." + ext)).write_bytes(data_path("demo." + ext).read_bytes())
    (tmp_path / "broken.lexicon").write_text("not a lexicon line\n")
    with monkeypatch.context() as m:
        m.setattr(resources, "data_path", lambda name: tmp_path / name)
        run_script(session, ["load-bundle broken"])
    assert out.getvalue().count("error:") == 1
    assert "error: lexicon lines start with 'lex'" in out.getvalue()
    assert session.registry is demo and session.grammar.registry is demo
    run_script(session, ["load-bundle claws"])
    assert out.getvalue().count("error:") == 1
    assert session.registry is not demo
    assert session.grammar.registry is session.registry
    assert session.lexicon.registry is session.registry
    assert session.grammar.rules == [] and session.model is None
    assert session.lexicon.lookup_token("NN1")


def test_main_repl_script(tmp_path, capsys):
    script = tmp_path / "session.txt"
    script.write_text("flags\nquit\n")
    code = main(["repl", "--bundle", "demo", "--script", str(script)])
    assert code == EXIT_OK
    assert "Current flag settings:" in capsys.readouterr().out


def test_gg_seed_env_override(monkeypatch):
    monkeypatch.setenv("GG_SEED", "777")
    session = Session()
    assert session.seed == 777
    session2 = Session(seed=5)
    assert session2.seed == 5


def test_trace_logs_edges(capsys):
    session, out = fresh_session()
    session.trace = True
    run_script(session, ["Sam chases the cat", "quit"])
    err = capsys.readouterr().err
    assert "Edge(" in err


def test_full_learning_session_matches_trace_shape(tmp_path):
    pretrain = tmp_path / "pretrain.corpus"
    pretrain.write_text(
        "Sam chases the cat\nThe cat chases Sam\n"
        "The cat down the road chases Sam\nSam down the road chases the happy cat\n"
    )
    triples = tmp_path / "empty.triples"
    triples.write_text("params delta 0.001 omega 0.35\n")
    session, out = fresh_session()
    run_script(
        session,
        [
            "load-triples %s" % triples,
            "train-corpus %s" % pretrain,
            "set hfc off",
            "Sam chases the happy cat",
            "set learning off",
            "set training on",
            "Sam chases the happy happy cat",
            "refine-grammar",
            "quit",
        ],
    )
    text = out.getvalue()
    assert "1 rule(s) acquired." in text
    assert "Refining and deleting rules ..." in text
    assert "Refining 4 rules encoded in" in text
    assert "rule is N1 -> Adj N1" in text


# -- eval inputs and options ------------------------------------------------------


BAD_TREES = ["(S (NP Sam)", "()", "(S x) y", "[N Sam_NP1"]


def test_malformed_plausibility_file_keeps_session_alive(tmp_path):
    for i, tree in enumerate(BAD_TREES):
        pairs = tmp_path / ("bad%d.pairs" % i)
        pairs.write_text("Sam chases the cat\n%s\n" % tree)
        assert _survives("eval --plausible %s" % pairs), tree
    odd = tmp_path / "odd.pairs"
    odd.write_text("Sam chases the cat\n")
    assert _survives("eval --plausible %s" % odd)


def test_main_eval_malformed_plausibility_file(tmp_path, capsys):
    for i, tree in enumerate(BAD_TREES):
        pairs = tmp_path / ("bad%d.pairs" % i)
        pairs.write_text("Sam chases the cat\n%s\n" % tree)
        assert main(["eval", "--bundle", "demo", "--plausible", str(pairs)]) == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("error:")


def test_zero_count_triple_keeps_session_alive(tmp_path):
    triples = tmp_path / "zero.triples"
    triples.write_text("triple [N +] [V +] 0\n")
    assert _survives("load-triples %s" % triples)


def test_non_utf8_file_keeps_session_alive(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xffSam chases the cat\n")
    # _read_lines, grammar.data_lines, FeatureRegistry.load and a reader
    # built on data_lines
    for command in ("learn-corpus", "load-grammar", "load-features", "load-model"):
        session, out = fresh_session()
        code = run_script(session, ["%s %s" % (command, bad), "Sam chases the cat", "quit"])
        text = out.getvalue()
        assert code == EXIT_OK and "1 parse(s)" in text, command
        assert "error: %s is not UTF-8 text" % bad in text, command


def test_main_eval_non_utf8_test_file(tmp_path, capsys):
    bad = tmp_path / "latin1.corpus"
    bad.write_bytes(b"\xffSam chases the cat\n")
    assert main(["eval", "--bundle", "demo", "--test", str(bad)]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error: %s is not UTF-8 text" % bad)


def test_non_integer_gg_seed_is_a_resource_error(monkeypatch, capsys):
    monkeypatch.setenv("GG_SEED", "seven")
    assert main(["eval", "--bundle", "demo"]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error: GG_SEED")
    # an explicit seed does not read the variable
    assert main(["--seed", "7", "eval", "--bundle", "demo"]) == EXIT_OK


def _report_bytes(prefix):
    with open(prefix + ".tsv", "rb") as tsv, open(prefix + ".txt", "rb") as txt:
        return tsv.read(), txt.read()


def test_eval_seed_after_subcommand_equals_seed_before(tmp_path, capsys):
    test_file = tmp_path / "test.corpus"
    test_file.write_text("Sam chases the cat\n")
    common = ["--bundle", "demo", "--test", str(test_file), "--random", "20", "2"]
    a, b, c = (str(tmp_path / name) for name in "abc")
    assert main(["eval"] + common + ["--seed", "7", "--out", a]) == EXIT_OK
    assert main(["--seed", "7", "eval"] + common + ["--out", b]) == EXIT_OK
    assert main(["--seed", "8", "eval"] + common + ["--out", c]) == EXIT_OK
    assert _report_bytes(a) == _report_bytes(b)
    assert _report_bytes(a) != _report_bytes(c)


def _eval_inputs(tmp_path):
    test_file = tmp_path / "test.corpus"
    test_file.write_text(
        "Sam chases the cat\nSam chases the zebra\nSam chases the happy cat\nThe cat chases Sam\n"
    )
    pairs = tmp_path / "plausible.pairs"
    pairs.write_text(
        "Sam chases the cat\n(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))\n"
        "The cat chases Sam\n[S [NP The_Det cat_N1 NP] [VP chases_V0 Sam_NP VP] S]\n"
        "Sam chases the happy cat\n"
        "(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 (Adj happy) (N1 cat)))))\n"
    )
    return str(test_file), str(pairs)


# sha256 of the .tsv and .txt reports of seed 7 on the demo bundle, from the
# code as it was before the measuring loop and the tree reader were merged
PINNED_REPORTS = {
    "test": ("c32115d34a14bc5ea2c36cf5882af48b75a708e2835b7d11c2a7d1af6234e7f0",
             "ae79e838bdd642712f5b29686f901fc8a50d838ebea8cc90c3d09f2009d4ef49"),
    "random": ("b02d4704bcb3238d10870e784e79798862e1f5ccb8c1f68080a9db7001e73042",
               "8b574b626af2de7bebffa5233a1057253c9cc6efb7d6d82a300c1d425df69ae3"),
    "plausible": ("693ef95c6361db873aa4384f8b111ec272699571133aaa2db0e67c997af3d9df",
                  "8fecd791cac98b07f13000ed1a1a7d4de95c1f53ef00c56b1d2ab74de59d6c68"),
}


def test_eval_reports_are_pinned(tmp_path):
    test_path, pairs_path = _eval_inputs(tmp_path)
    runs = {
        "test": dict(test_path=test_path),
        "random": dict(random_count=20, random_length=2),
        "plausible": dict(plausible_path=pairs_path),
    }
    for name, kwargs in runs.items():
        session, _ = fresh_session()
        prefix = str(tmp_path / name)
        cmd_eval(session, seed=7, out_prefix=prefix, **kwargs)
        got = tuple(hashlib.sha256(data).hexdigest() for data in _report_bytes(prefix))
        assert got == PINNED_REPORTS[name], name


def test_cmd_eval_parses_each_input_once_in_order(tmp_path, monkeypatch):
    # the per-input timer of the eval benchmark wraps evaluate.parse this way
    from gramgrow import evaluate

    original = vars(evaluate)["parse"]
    calls = []

    def timed(*args, **kwargs):
        calls.append((list(args[0]), args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluate, "parse", timed)
    test_path, pairs_path = _eval_inputs(tmp_path)
    session, _ = fresh_session()
    cmd_eval(session, test_path, pairs_path, 5, 3, seed=7)
    with open(test_path) as f:
        corpus = f.read().splitlines()
    with open(pairs_path) as f:
        sentences = f.read().splitlines()[::2]
    # a line with an unknown word is parsed, and fails, like any other
    want = corpus + evaluate.gen_random(session.lexicon, 3, 5, 7) + sentences
    assert [tokens for tokens, _ in calls] == [line.split() for line in want]
    assert all(grammar is session.grammar for _, grammar in calls)


def test_one_pair_plausibility_file_with_out(tmp_path, capsys):
    pairs = tmp_path / "one.pairs"
    pairs.write_text("Sam chases the cat\n(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))\n")
    prefix = str(tmp_path / "one")
    assert main(["eval", "--bundle", "demo", "--plausible", str(pairs), "--out", prefix]) == EXIT_OK
    tsv, txt = _report_bytes(prefix)
    assert b"plausibility_sd\tundefined\n" in tsv and b"sd 0.000 over 1 sentence(s)" in txt
    session, out = fresh_session()
    code = run_script(session, ["eval --plausible %s --out %s" % (pairs, prefix), "Sam chases the cat", "quit"])
    assert code == EXIT_OK and "1 parse(s)" in out.getvalue()


def _demo_without_labels():
    """Load lines for the demo features, grammar and lexicon, and no labels."""
    return [("load-" + kind, str(data_path("demo." + kind))) for kind in ("features", "grammar", "lexicon")]


def test_eval_plausible_without_labels_keeps_session_alive(tmp_path, monkeypatch):
    from gramgrow import evaluate

    parsed = []
    plain = evaluate.parse
    monkeypatch.setattr(evaluate, "parse", lambda *args, **kwargs: parsed.append(args) or plain(*args, **kwargs))
    pairs = tmp_path / "one.pairs"
    pairs.write_text("Sam chases the cat\n(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))\n")
    corpus = tmp_path / "test.corpus"
    corpus.write_text("Sam chases the cat\n")
    out = io.StringIO()
    lines = ["%s %s" % load for load in _demo_without_labels()]
    lines += ["eval --test %s --plausible %s" % (corpus, pairs), "Sam chases the cat", "quit"]
    assert run_script(Session(out=out), lines) == EXIT_OK
    text = out.getvalue()
    assert "error: eval --plausible needs labels: load-paraphrase FILE" in text and "1 parse(s)" in text
    assert not parsed  # refused before any parsing


def test_main_eval_plausible_without_labels(tmp_path, capsys):
    pairs = tmp_path / "one.pairs"
    pairs.write_text("Sam chases the cat\n(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))\n")
    argv = ["eval", "--plausible", str(pairs)]
    for command, path in _demo_without_labels():
        argv += ["--" + command[len("load-"):], path]
    assert main(argv) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error: eval --plausible needs labels")
    assert main(argv + ["--labels", str(data_path("demo.labels"))]) == EXIT_OK


def test_a_failing_report_leaves_no_report_file(tmp_path, monkeypatch, capsys):
    from gramgrow.evaluate import EvalReport
    from gramgrow.fs import FSError

    def broken(self):
        raise FSError("no summary")

    monkeypatch.setattr(EvalReport, "summary", broken)
    prefix = tmp_path / "r"
    assert main(["eval", "--bundle", "demo", "--random", "2", "2", "--out", str(prefix)]) == EXIT_RESOURCE
    assert not list(tmp_path.iterdir())


def test_eval_random_over_an_empty_lexicon(tmp_path, capsys):
    empty = tmp_path / "empty.lexicon"
    empty.write_text("")
    argv = ["eval", "--features", str(data_path("demo.features")), "--grammar",
            str(data_path("demo.grammar")), "--lexicon", str(empty), "--random", "3", "2"]
    assert main(argv) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error:")
    session, out = fresh_session()
    lines = ["load-lexicon %s" % empty, "eval --random 3 2", "load-lexicon %s" % data_path("demo.lexicon"),
             "Sam chases the cat", "quit"]
    assert run_script(session, lines) == EXIT_OK
    assert "error:" in out.getvalue() and "1 parse(s)" in out.getvalue()
