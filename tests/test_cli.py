import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from mcwc import bounds, corpus
from mcwc.bounds import best_upper_bound
from mcwc.cli import main
from mcwc.core import CodeParameters, VerificationReport, load_code, save_code
from mcwc.designs import mcwc_to_square, save_square


GOLDEN = Path(__file__).with_name("asymptotic_golden.txt")
# `mcwc verify --format tsv` over the shipped files, run from the data root,
# and `mcwc table --n1-max 37 --format tsv`, recorded before either command
# checked a developed code without building its words
VERIFY_GOLDEN = Path(__file__).with_name("verify_golden.tsv")
TABLE_GOLDEN = Path(__file__).with_name("table_golden.tsv")
# `mcwc --format tsv bound ... --method all` on the shapes of bound_golden_args,
# each output after a "$ <arguments>" line, recorded before the scheme
# multiplicities were computed in integers and plotkin-discrete read its
# Plotkin quantities once
BOUND_GOLDEN = Path(__file__).with_name("bound_golden.tsv")


def bound_golden_args():
    """Uniform shapes with m <= 3, 2 <= n <= 8, 0 <= w <= n + 1 and d in
    {0, 1, 3, 4, 6, 8}; two LP-heavy shapes, the LP's class cap and its
    variable cap; three non-uniform shapes."""
    cases = [f"--m {m} --n {n} --w {w} --d {d}"
             for m in (1, 2, 3) for n in range(2, 9) for w in range(n + 2)
             for d in (0, 1, 3, 4, 6, 8)]
    cases += [f"--m {m} --n {n} --w {w} --d {d}" for m, n, w, d in
              ((3, 8, 3, 6), (3, 8, 5, 6), (13, 2, 1, 4), (10, 4, 2, 16))]
    cases += ["--lengths 5,7 --weights 2,2 --d 6",
              "--lengths 5,7,9,11 --weights 2,2,3,3 --d 8",
              "--lengths 6,6,6 --weights 2,2,4 --d 6"]
    return cases


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "c55.mcwc"
    save_code(corpus.small_code(5, 5), path)
    return str(path)


class TestVerify:
    def test_code_file(self, code_file, capsys):
        rc, out = run(["verify", code_file], capsys)
        assert rc == 0
        assert "size=5" in out and "min_distance=6" in out

    def test_format_before_or_after_the_command(self, code_file, capsys):
        # either position sets the format, and the command's own one wins
        _, text = run(["verify", code_file], capsys)
        _, tsv = run(["--format", "tsv", "verify", code_file], capsys)
        assert text != tsv and "\t" in tsv
        assert run(["verify", code_file, "--format", "tsv"], capsys)[1] == tsv
        assert run(["--format", "tsv", "verify", code_file, "--format", "text"], capsys)[1] == text
        assert run(["--format", "text", "verify", code_file, "--format", "tsv"], capsys)[1] == tsv

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.mcwc"
        path.write_text("mcwc 2 6\npart 1 3 2\npart 2 3 2\n0 1 3 4\n0 1 3 5\n")
        rc, out = run(["verify", str(path)], capsys)
        assert rc == 1 and "INVALID" in out

    def test_square_file(self, tmp_path, capsys):
        path = tmp_path / "s.sq"
        save_square(mcwc_to_square(corpus.small_code(7, 7)), path)
        rc, out = run(["verify", str(path)], capsys)
        assert rc == 0 and "sas*" in out

    def test_develop_file(self, tmp_path, capsys):
        src = corpus.data_root() / "develop" / "t13_n13.dev"
        rc, out = run(["verify", str(src)], capsys)
        assert rc == 0 and "developed=39" in out

    def test_parse_error_cites_line(self, tmp_path, capsys):
        path = tmp_path / "broken.mcwc"
        path.write_text("mcwc 2 6\npart 1 3 2\npart 2 3 2\n4 3 1 0\n")
        rc, out = run(["verify", str(path)], capsys)
        assert rc == 1 and "line 4" in out

    def test_gdd_file(self, tmp_path, capsys):
        path = tmp_path / "td.gdd"
        path.write_text(
            "gdd 6\ngroup 0 1\ngroup 2 3\ngroup 4 5\n"
            "block 0 2 4\nblock 0 3 5\nblock 1 2 5\nblock 1 3 4\n"
        )
        rc, out = run(["verify", str(path)], capsys)
        assert rc == 0 and "blocks=4" in out

    def test_bibd_file(self, tmp_path, capsys):
        from mcwc.constructions import affine_plane_bibd, format_bibd

        path = tmp_path / "ag23.bibd"
        path.write_text(format_bibd(affine_plane_bibd(3)))
        rc, out = run(["verify", str(path)], capsys)
        assert rc == 0 and "lambda=1" in out
        rc, out = run(["construct", "bibd", str(path)], capsys)
        assert rc == 0 and "size 9" in out and "M(4,3,6,1)" in out

    def test_decomp_file(self, tmp_path, capsys):
        from mcwc.constructions import format_decomposition, ordered_pair_decomposition

        path = tmp_path / "pairs.dec"
        path.write_text(format_decomposition(ordered_pair_decomposition(3)))
        rc, out = run(["verify", str(path)], capsys)
        assert rc == 0 and "members=" in out
        rc, out = run(["construct", "decomp", str(path), "--weights", "1,1"], capsys)
        assert rc == 0 and "size 6" in out


class TestBound:
    def test_table_all_methods(self, capsys):
        rc, out = run(["bound", "--m", "2", "--n", "5", "--w", "2", "--d", "6"], capsys)
        assert rc == 0
        for method in ("johnson", "plotkin", "spherical", "gv", "lp", "best"):
            assert method in out
        rows = [l.split() for l in out.splitlines() if l.startswith(("johnson ", "plotkin ", "spherical", "lp"))]
        assert all(r[1] == "5" for r in rows)

    def test_non_uniform(self, capsys):
        rc, out = run(
            ["bound", "--lengths", "5,7", "--weights", "2,2", "--d", "6",
             "--method", "johnson"],
            capsys,
        )
        assert rc == 0 and "7" in out

    def test_tsv_matches_text(self, capsys):
        rc, text = run(["bound", "--m", "2", "--n", "5", "--w", "2", "--d", "6"], capsys)
        rc, tsv = run(
            ["--format", "tsv", "bound", "--m", "2", "--n", "5", "--w", "2", "--d", "6"],
            capsys,
        )
        split_text = [l.split() for l in text.splitlines()]
        split_tsv = [l.split("\t") for l in tsv.splitlines()]
        assert [r[:2] for r in split_text] == [[c.strip() for c in r[:2]] for r in split_tsv]

    def test_dump_lp(self, tmp_path, capsys):
        out_file = tmp_path / "instance.lp"
        rc, _ = run(
            ["bound", "--m", "1", "--n", "5", "--w", "2", "--d", "4",
             "--method", "lp", "--dump-lp", str(out_file)],
            capsys,
        )
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("max") and any(">=" in l for l in lines[1:])

    # --dump-lp files recorded before the LP solver was cut to one phase
    DUMPED = {
        "--m 2 --n 5 --w 2 --d 6": (
            "max 2 1\n"
            "2 1 >= -1\n"
            "-2 -8/3 >= -4\n"
            "0 5/3 >= -5\n"
            "-32/9 64/9 >= -16\n"
            "50/9 -40/9 >= -20\n"
            "-50/9 25/9 >= -25\n"
        ),
        "--m 1 --n 5 --w 2 --d 4": (
            "max 1\n"
            "1 >= -1\n"
            "-8/3 >= -4\n"
            "5/3 >= -5\n"
        ),
    }

    @pytest.mark.parametrize("args", sorted(DUMPED))
    def test_dump_lp_bytes(self, args, tmp_path, capsys):
        out_file = tmp_path / "instance.lp"
        rc, _ = run(["bound", *args.split(), "--dump-lp", str(out_file)], capsys)
        assert rc == 0
        assert out_file.read_bytes() == self.DUMPED[args].encode()

    def test_dump_lp_builds_once(self, tmp_path, capsys, monkeypatch):
        from mcwc import cli, lp

        calls = []

        def counted(*a, **k):
            calls.append(a)
            return build(*a, **k)

        build = lp.delsarte_lp
        for mod in (lp, cli):
            monkeypatch.setattr(mod, "delsarte_lp", counted)
        # a shape that the LP solves, one with no class left (d > 2mw) and one
        # with no word (w > n): the last two dump the empty program
        dumped = {"--m 2 --n 5 --w 2 --d 6": self.DUMPED["--m 2 --n 5 --w 2 --d 6"],
                  "--m 2 --n 5 --w 2 --d 10": "max\n",
                  "--m 2 --n 5 --w 9 --d 4": "max\n"}
        out_file = tmp_path / "instance.lp"
        for args, text in dumped.items():
            calls.clear()
            rc, _ = run(["bound", *args.split(), "--dump-lp", str(out_file)], capsys)
            assert rc == 0 and len(calls) == 1, args
            assert out_file.read_bytes() == text.encode(), args

    @pytest.mark.parametrize("args,message", [
        ("--m 2 --n 5 --w 2 --d 5", "the LP bound requires an even distance"),
        ("--lengths 3,5 --weights 1,2 --d 4", "the LP bound requires uniform parameters"),
        ("--m 13 --n 2 --w 1 --d 4", "LP would need 8192 classes, above the cap of 4096"),
    ])
    def test_dump_lp_without_an_lp_prints_no_row(self, args, message, tmp_path, capsys):
        out_file = tmp_path / "instance.lp"
        assert main(["bound", *args.split(), "--dump-lp", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out_file.exists()

    def test_missing_params(self, capsys):
        rc, _ = run(["bound", "--d", "6"], capsys)
        assert rc == 2

    # --format tsv output of 'bound' recorded before each bound was computed
    # once per invocation: 'best' from the LP; an LP outside the gate, whose
    # row is an error that 'best' ignores; a non-uniform shape
    RECORDED = {
        "--m 3 --n 8 --w 3 --d 6": (
            "johnson\t3864\t\n"
            "johnson-eq3\t-\tdenominator <= 0\n"
            "plotkin\t-\tb <= 0\n"
            "plotkin-discrete\t-\tb <= 0\n"
            "spherical\t-\tb <= 0\n"
            "gv\t217\tlower bound\n"
            "lp\t3497\t\n"
            "best\t3497\tvia lp\n"
        ),
        "--m 10 --n 4 --w 2 --d 16": (
            "johnson\t1728\t\n"
            "johnson-eq3\t-\tdenominator <= 0\n"
            "plotkin\t-\tb <= 0\n"
            "plotkin-discrete\t-\tb <= 0\n"
            "spherical\t-\tb <= 0\n"
            "gv\t13\tlower bound\n"
            "lp\t-\tLP would need 59049 classes, above the cap of 4096\n"
            "best\t1728\tvia johnson-recursive\n"
        ),
        "--lengths 5,7 --weights 2,2 --d 6": (
            "johnson\t7\t\n"
            "johnson-eq3\t8\t\n"
            "plotkin\t-\tplotkin requires uniform parameters\n"
            "plotkin-discrete\t-\tplotkin-discrete requires uniform parameters\n"
            "spherical\t-\tspherical requires uniform parameters\n"
            "gv\t-\tgv requires uniform parameters\n"
            "lp\t-\tthe LP bound requires uniform parameters\n"
            "best\t7\tvia johnson-recursive\n"
        ),
    }

    @pytest.mark.parametrize("args", sorted(RECORDED))
    def test_tsv_output_unchanged(self, args, capsys):
        rc, out = run(["--format", "tsv", "bound", *args.split()], capsys)
        assert rc == 0
        assert out == "method\tvalue\tnote\n" + self.RECORDED[args]

    @pytest.mark.parametrize("args", sorted(RECORDED))
    def test_each_bound_computed_once(self, args, capsys, monkeypatch):
        from mcwc import bounds, cli, lp

        calls = {"johnson_recursive": 0, "lp_bound": 0}

        def counted(fn):
            def wrapper(*a, **k):
                calls[fn.__name__] += 1
                return fn(*a, **k)
            return wrapper

        for fn, module, key in ((bounds.johnson_recursive, bounds, "johnson"),
                                (lp.lp_bound, lp, "lp")):
            wrapped = counted(fn)
            for mod in (module, cli):
                monkeypatch.setattr(mod, fn.__name__, wrapped)
            monkeypatch.setitem(cli._BOUND_FNS, key, wrapped)
        rc, _ = run(["bound", *args.split(), "--method", "all"], capsys)
        assert rc == 0
        assert calls["johnson_recursive"] == 1 and calls["lp_bound"] <= 1, calls

    def test_single_method_computes_only_that_bound(self, capsys, monkeypatch):
        from mcwc import bounds, lp

        def forbidden(*a, **k):
            raise AssertionError("computed a bound that was not asked for")

        for mod, name in ((bounds, "johnson_eq3"), (bounds, "plotkin_discrete"),
                          (bounds, "spherical_bound"), (lp, "lp_bound")):
            monkeypatch.setattr(mod, name, forbidden)
        rc, out = run(["bound", "--m", "3", "--n", "8", "--w", "3", "--d", "6",
                       "--method", "johnson"], capsys)
        assert rc == 0 and out.splitlines()[1].split() == ["johnson", "3864"]

    def test_mixed_twin_rows_equal_the_uniform_twin(self, capsys):
        # complementing the last block (4 -> 6 - 4) keeps every distance
        _, mixed = run(["--format", "tsv", "bound", "--lengths", "6,6,6", "--weights", "2,2,4",
                        "--d", "6"], capsys)
        _, uniform = run(["--format", "tsv", "bound", "--m", "3", "--n", "6", "--w", "2",
                          "--d", "6"], capsys)
        assert mixed == uniform and uniform.endswith("best\t110\tvia lp\n")

    def test_infeasible_shape_has_no_word(self, capsys):
        rc, out = run(["--format", "tsv", "bound", "--m", "2", "--n", "3", "--w", "5",
                       "--d", "4"], capsys)
        assert rc == 0
        # every bound that applies answers 0, and the closed forms say why
        assert out.splitlines() == [
            "method\tvalue\tnote",
            "johnson\t0\t",
            "johnson-eq3\t0\t",
            "plotkin\t0\t",
            "plotkin-discrete\t0\tno word",
            "spherical\t0\tno word",
            "gv\t0\tlower bound",
            "lp\t0\tno word",
            "best\t0\tvia johnson-recursive",
        ]

    def test_odd_distance_rows_give_the_reason(self, capsys):
        rc, out = run(["--format", "tsv", "bound", "--m", "2", "--n", "4", "--w", "5",
                       "--d", "3"], capsys)
        assert rc == 0
        # gv has no value here, so its row gives the reason like every other row
        assert out.splitlines() == [
            "method\tvalue\tnote",
            "johnson\t0\t",
            "johnson-eq3\t-\todd distance",
            "plotkin\t-\todd distance",
            "plotkin-discrete\t-\todd distance",
            "spherical\t-\todd distance",
            "gv\t-\todd distance",
            "lp\t-\todd distance",
            "best\t0\tvia johnson-recursive",
        ]


class TestAsymptotic:
    def test_printed_bytes_match_the_recorded_output(self, capsys):
        # recorded from the mpmath evaluation that the decimal one replaced, on
        # the grid of the 60-digit test, the 15 zero-line cases, an exponent-form
        # value (omega 5/11) and dps 1 and 60 at one point
        cases = GOLDEN.read_text(encoding="utf-8").split("$ ")[1:]
        assert len(cases) == 78
        for case in cases:
            args, expected = case.split("\n", 1)
            rc, out = run(["--format", "tsv", "asymptotic", *args.split()], capsys)
            assert rc == 0 and out == expected, args

    def test_values(self, capsys):
        rc, out = run(["asymptotic", "--delta", "1/4", "--omega", "1/2"], capsys)
        assert rc == 0
        assert "0.09436" in out and "0.18872" in out

    def test_non_integer_reciprocal(self, capsys):
        rc, out = run(["asymptotic", "--delta", "1/4", "--omega", "2/5"], capsys)
        assert rc == 0
        line = [l for l in out.splitlines() if l.startswith("mu_c")][0]
        assert line.split()[1] == "-"

    @pytest.mark.parametrize("dps", [5, 15, 30])
    @pytest.mark.parametrize("omega", ["1/2", "1/3", "1/4", "1/5", "2/5"])
    def test_rates_are_exactly_zero_on_the_line_where_they_vanish(self, omega, dps, capsys):
        # on delta = 2*omega*(1 - omega) all three rates are 0; mu_c exists
        # only where 1/omega is an integer
        w = Fraction(omega)
        delta = str(2 * w * (1 - w))
        rc, out = run(["--format", "tsv", "asymptotic", "--delta", delta, "--omega", omega,
                       "--dps", str(dps)], capsys)
        assert rc == 0
        values = dict(line.split("\t") for line in out.splitlines()[1:])
        zero = "0.0" if w.numerator == 1 else "-"
        assert values == {"mu_c": zero, "mu_gv": "0.0", "f": "0.0"}


class TestConstructAndDevelop:
    def test_code_to_square_and_back(self, code_file, tmp_path, capsys):
        sq_path = tmp_path / "out.sq"
        rc, out = run(["construct", "code-to-square", code_file, "--out", str(sq_path)], capsys)
        assert rc == 0 and "sas square, side 5" in out
        code_path = tmp_path / "back.mcwc"
        rc, out = run(
            ["construct", "square-to-code", str(sq_path), "--out", str(code_path)],
            capsys,
        )
        assert rc == 0
        assert load_code(code_path).support_set() == corpus.small_code(5, 5).support_set()

    def test_fill_hole(self, tmp_path, capsys):
        frame = tmp_path / "frame.sq"
        filler = tmp_path / "filler.sq"
        save_square(corpus.hsas_square(11, 3, 13), frame)
        save_square(mcwc_to_square(corpus.small_code(3, 3)), filler)
        rc, out = run(
            ["construct", "fill-hole", "--frame", str(frame), "--filler", str(filler)],
            capsys,
        )
        assert rc == 0 and "sas* square, side 13" in out

    def test_develop(self, tmp_path, capsys):
        src = corpus.data_root() / "develop" / "t13_n15.dev"
        out_path = tmp_path / "t13n15.mcwc"
        rc, out = run(["develop", str(src), "--out", str(out_path)], capsys)
        assert rc == 0 and "developed 45 codewords" in out
        assert len(load_code(out_path)) == 45

    def test_concat(self, tmp_path, capsys):
        inner = tmp_path / "inner.mcwc"
        inner.write_text("mcwc 1 2\npart 1 3 1\n0\n1\n2\n")
        rc, out = run(
            ["construct", "concat", str(inner), "--outer-repetition", "3,2"], capsys
        )
        assert rc == 0 and "size 3" in out


class TestSearch:
    def test_search_reports_optimum(self, capsys):
        rc, out = run(["search", "--lengths", "5,7", "--weights", "2,2", "--d", "6"], capsys)
        assert rc == 0 and out.startswith("optimum 6")

    def test_no_symmetry_is_refused(self, capsys):
        # the (True, True) entry of PINNED in test_oracle.py; the option that
        # switched the symmetry reduction off is gone
        argv = ["search", "--lengths", "5,7", "--weights", "2,2", "--d", "6", "--budget", "20000"]
        rc, out = run(argv, capsys)
        assert rc == 0 and out == "optimum 6 (upper bound 7, 266 nodes, exhausted)\n"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-symmetry"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-symmetry" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        assert "symmetry" not in capsys.readouterr().out

    def test_search_reports_why_it_stopped(self, capsys):
        rc, out = run(["search", "--m", "3", "--n", "4", "--w", "2", "--d", "6"], capsys)
        assert rc == 0 and out == "optimum 12 (upper bound 15, 1937 nodes, exhausted)\n"
        rc, out = run(["search", "--m", "2", "--n", "5", "--w", "3", "--d", "4"], capsys)
        assert rc == 0 and out.startswith("optimum 20 (") and out.endswith(", target-reached)\n")
        rc, out = run(["search", "--m", "1", "--n", "5", "--w", "2", "--d", "2"], capsys)
        assert rc == 0 and out == "optimum 10 (upper bound 10, 0 nodes, trivial)\n"

    def test_emit_witness(self, tmp_path, capsys):
        path = tmp_path / "witness.mcwc"
        rc, out = run(
            ["search", "--m", "1", "--n", "5", "--w", "2", "--d", "4",
             "--emit-witness", str(path)],
            capsys,
        )
        assert rc == 0
        code = load_code(path)
        assert len(code) == 2


class TestTable:
    def test_small_range(self, capsys):
        rc, out = run(["table", "--n1-max", "9"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 15  # header + 14 cells
        row57 = [l for l in lines if l.startswith("5   7")][0]
        assert "exceptional" in row57 and " 6 " in row57

    def test_hole_fill_rows(self, capsys):
        rc, out = run(["table", "--n1", "11"], capsys)
        assert rc == 0
        assert all("ok" in l for l in out.splitlines()[1:])
        assert "hole-fill" in out

    def test_develop_rows(self, capsys):
        rc, out = run(["table", "--n1", "13"], capsys)
        assert rc == 0 and "develop" in out

    def test_even_n1_rejected(self, capsys):
        rc, _ = run(["table", "--n1", "4"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("n1", ["1", "-1"])
    def test_n1_below_3_rejected(self, n1, capsys):
        rc = main(["table", "--n1", n1])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: n1 must be odd and at least 3, got {n1}\n"

    def test_oracle_cap_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n1", "3", "--oracle-cap", "500"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle-cap" in capsys.readouterr().err

    @pytest.mark.parametrize("n1", [11, 15, 19])
    def test_t5_hole_fill_rows(self, n1, capsys):
        # the last row of each hole-fill family fills a hole of five rows
        rc, out = run(["--format", "tsv", "table", "--n1", str(n1)], capsys)
        assert rc == 0
        n2 = 2 * n1 - 1
        assert out.splitlines()[-1].split("\t") == [
            str(n1), str(n2), str(n2 * (n1 - 1) // 4), str(n2 * (n1 - 1) // 4), "hole-fill", "ok"]

    def test_source_below_target(self, monkeypatch, capsys):
        from mcwc import cli
        from mcwc.core import PartitionedCode

        shipped = corpus.small_code

        def one_word_short(n1, n2):
            code = shipped(n1, n2)
            return PartitionedCode(code.params, code.words[1:]) if (n1, n2) == (3, 5) else code

        monkeypatch.setattr(cli.corpus, "small_code", one_word_short)
        rc, out = run(["--format", "tsv", "table", "--n1", "3"], capsys)
        assert rc == 1
        assert out.splitlines()[1:] == ["3\t3\t1\t1\ttable\tok", "3\t5\t2\t1\ttable\tBELOW-TARGET"]

    def test_unresolved_cells_reported_open(self, capsys):
        rc, out = run(["table", "--n1", "23"], capsys)
        assert rc == 0
        body = out.splitlines()[1:]
        assert body and all("open" in l and " - " in l for l in body)

    def test_targets_and_statuses_to_37(self, capsys):
        # each target is the paper's Johnson-type bound n2(n1 - 1)/4 and the
        # best upper bound that the bounds module computes
        rc, out = run(["--format", "tsv", "table", "--n1-max", "37"], capsys)
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert rc == 0 and len(rows) == 189
        assert all(int(t) == int(n2) * (int(n1) - 1) // 4 for n1, n2, t, *_ in rows)
        assert all(int(t) == best_upper_bound(CodeParameters((int(n1), int(n2)), (2, 2), 6)).value
                   for n1, n2, t, *_ in rows)
        statuses = [row[-1] for row in rows]
        assert {s: statuses.count(s) for s in set(statuses)} == {
            "ok": 128, "exceptional": 1, "open": 60}

    def test_large_n1_on_an_empty_memo(self, monkeypatch, capsys):
        # the targets need no Johnson recursion, whose depth grows with n1
        monkeypatch.setattr(bounds, "_REC_CACHE", {})
        rc, out = run(["--format", "tsv", "table", "--n1", "501"], capsys)
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert rc == 0 and len(rows) == 251
        assert all(int(t) == int(n2) * 500 // 4 for _, n2, t, *_ in rows)

    def test_identical_values_in_tsv(self, capsys):
        rc, text = run(["table", "--n1", "3"], capsys)
        rc, tsv = run(["--format", "tsv", "table", "--n1", "3"], capsys)
        assert [l.split() for l in text.splitlines()] == [
            l.split("\t") for l in tsv.splitlines()
        ]


    def test_hole_fillers_built_once_per_command(self, monkeypatch, capsys):
        from mcwc import cli

        built = []
        square = cli.mcwc_to_square
        monkeypatch.setattr(cli, "mcwc_to_square", lambda code: built.append(len(code)) or square(code))
        rc, out = run(["--format", "tsv", "table", "--n1", "11,15,19"], capsys)
        assert rc == 0 and out.count("\thole-fill\tok") == 24
        assert sorted(built) == [1, 2]  # the codes (3, 3) and (3, 5)
        run(["table", "--n1", "11"], capsys)
        assert sorted(built) == [1, 1, 2, 2]  # a new command builds its own


class TestGoldens:
    def test_verify_of_every_shipped_file(self, monkeypatch, capsys):
        root = corpus.data_root()
        monkeypatch.chdir(root)
        files = sorted(str(path.relative_to(root)) for sub in ("codes", "develop", "squares")
                       for path in (root / sub).iterdir() if path.suffix in (".mcwc", ".dev", ".sq"))
        assert len(files) == 168
        rc, out = run(["verify", "--format", "tsv", *files], capsys)
        assert rc == 0 and out == VERIFY_GOLDEN.read_text(encoding="utf-8")

    def test_table_to_37(self, capsys):
        rc, out = run(["table", "--n1-max", "37", "--format", "tsv"], capsys)
        assert rc == 0 and out == TABLE_GOLDEN.read_text(encoding="utf-8")

    def test_bound_all_methods(self, capsys):
        cases = BOUND_GOLDEN.read_text(encoding="utf-8").split("$ ")[1:]
        assert [case.split("\n", 1)[0] for case in cases] == bound_golden_args()
        assert len(cases) == 889
        for case in cases:
            args, expected = case.split("\n", 1)
            rc, out = run(["--format", "tsv", "bound", *args.split(), "--method", "all"], capsys)
            assert rc == 0 and out == expected, args


class TestExitContract:
    """Exit 0: every check passed; 1: a check failed; 2: an error, reported as
    one 'error: ...' line (or an argparse usage error), never a traceback."""

    @staticmethod
    def assert_error(argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: "), err

    def test_environment_is_not_an_input(self, monkeypatch, capsys):
        # the search budgets come from the options alone, defaulting to SearchConfig's
        def search():
            try:
                rc = main(["search", "--m", "1", "--n", "10", "--w", "4", "--d", "4"])
            except SystemExit as exc:
                rc = exc.code
            return rc, capsys.readouterr()

        plain = search()
        monkeypatch.setenv("MCWC_NODE_BUDGET", "10")
        monkeypatch.setenv("MCWC_VERTEX_CAP", "abc")
        assert search() == plain
        assert plain[0] == 0 and plain[1].out.startswith("optimum ")

    @pytest.mark.parametrize("argv", [["--m", "1", "--n", "1000", "--w", "500", "--method", "johnson"],
                                      ["--m", "2", "--n", "700", "--w", "350"]],
                             ids=["one-block", "two-blocks"])
    def test_johnson_recursion_too_deep(self, argv, capsys):
        from mcwc import bounds
        from mcwc.core import CodeParameters

        later = CodeParameters.uniform(2, 9, 3, 4)
        bounds._REC_CACHE.clear()
        answer = bounds.johnson_recursive(later)
        before = {d: dict(memo) for d, memo in bounds._REC_CACHE.items()}
        rc = main(["bound", *argv, "--d", "4"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert "deeper than Python's recursion limit" in captured.err
        assert {d: dict(memo) for d, memo in bounds._REC_CACHE.items()} == before
        again = bounds.johnson_recursive(later)
        assert (again.value, again.certificate["trace"]) == (answer.value, answer.certificate["trace"])

    @pytest.mark.parametrize(
        "op", ["square-to-code", "code-to-square", "bibd", "decomp", "concat", "fill-hole"]
    )
    def test_construct_without_input(self, op, capsys):
        self.assert_error(["construct", op, "--weights", "1,1", "--outer-repetition", "3,2"],
                          capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--lengths", "5,x", "--weights", "2,2", "--d", "6"],
            ["bound", "--lengths", "5,7", "--weights", "2,y", "--d", "6"],
            ["search", "--lengths", "5,x", "--weights", "2,2", "--d", "6"],
            ["table", "--n1", "3,x"],
            ["construct", "concat", "INNER", "--outer-repetition", "2,y"],
            ["construct", "concat", "INNER", "--outer-repetition", "2"],
            ["construct", "concat", "INNER"],
            ["construct", "decomp", "DECOMP", "--weights", "1,x"],
            ["search", "--m", "1", "--n", "5", "--w", "2", "--d", "4", "--budget", "0"],
            ["search", "--m", "1", "--n", "5", "--w", "2", "--d", "4", "--vertex-cap", "-1"],
            ["asymptotic", "--delta", "abc", "--omega", "1/2"],
            ["asymptotic", "--delta", "1/4", "--omega", "1/0"],
            ["asymptotic", "--delta", "1/4", "--omega", "0"],
            ["asymptotic", "--delta", "1/4", "--omega", "1/2", "--dps", "0"],
            ["asymptotic", "--delta", "1/4", "--omega", "1/2", "--dps", "-5"],
        ],
        ids=["lengths", "weights", "search-lengths", "n1", "outer-token", "outer-count",
             "outer-missing", "decomp-weights", "budget", "vertex-cap", "delta", "omega",
             "omega-zero", "dps-zero", "dps-negative"],
    )
    def test_malformed_numbers(self, argv, tmp_path, capsys):
        from mcwc.constructions import format_decomposition, ordered_pair_decomposition

        inner = tmp_path / "inner.mcwc"
        inner.write_text("mcwc 1 2\npart 1 3 1\n0\n1\n2\n")
        dec = tmp_path / "pairs.dec"
        dec.write_text(format_decomposition(ordered_pair_decomposition(3)))
        paths = {"INNER": str(inner), "DECOMP": str(dec)}
        self.assert_error([paths.get(a, a) for a in argv], capsys)

    @pytest.mark.parametrize("argv", [["--n1", "1"], ["--n1-max", "1"], ["--n1-max", "2"]],
                             ids=["n1", "n1-max", "n1-max-even"])
    def test_table_below_the_smallest_n1(self, argv, capsys):
        rc = main(["table", *argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("op", ["bibd", "decomp"])
    def test_construct_closes_its_input(self, op, tmp_path, capsys):
        import warnings

        from mcwc.constructions import (
            affine_plane_bibd,
            format_bibd,
            format_decomposition,
            ordered_pair_decomposition,
        )

        path = tmp_path / f"design.{op}"
        path.write_text(format_bibd(affine_plane_bibd(3)) if op == "bibd"
                        else format_decomposition(ordered_pair_decomposition(3)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _ = run(["construct", op, str(path), "--weights", "1,1"], capsys)
        assert rc == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    # one malformed integer token per parser kind, with the line it is on
    MALFORMED = {
        "mcwc": ("mcwc 1 4\npart 1 5 2\n0 1\n0 x\n", 4),
        "sq": ("square sas 3 3\ncell 0 1 x 2\n", 2),
        "dev": ("develop 3 2\nlayout 1 classes=0,x fixed=inf\nlayout 2 classes=1\n", 2),
        "bibd": ("bibd 4 2 1 1\nclass\nblock 0 1\nblock 2 y\n", 4),
        "decomp": ("decomp 3 1\nmember edge 0 1 1 1\nmember edge 0 z 1 1\n", 3),
        "gdd": ("gdd 4\ngroup 0 1\ngroup 2 3\nblock 0 2\nblock 1 ?\n", 5),
    }

    @pytest.mark.parametrize("suffix", list(MALFORMED))
    def test_malformed_token_is_an_error_row(self, suffix, tmp_path, capsys):
        text, line = self.MALFORMED[suffix]
        path = tmp_path / f"bad.{suffix}"
        path.write_text(text)
        rc, out = run(["--format", "tsv", "verify", str(path)], capsys)
        row = out.splitlines()[1].split("\t")
        assert rc == 1 and row[2] == "ERROR" and row[3].startswith(f"line {line}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["develop", "BAD"],
            ["construct", "square-to-code", "BAD"],
            ["construct", "code-to-square", "BAD"],
            ["construct", "fill-hole", "--frame", "BAD", "--filler", "BAD"],
            ["construct", "bibd", "BAD"],
            ["construct", "decomp", "BAD", "--weights", "1,1"],
            ["construct", "concat", "BAD", "--outer-repetition", "3,2"],
        ],
        ids=lambda argv: "-".join(a for a in argv[:2] if a != "BAD"),
    )
    def test_non_utf8_input_is_an_error(self, argv, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe")
        rc = main([str(path) if a == "BAD" else a for a in argv])
        err = capsys.readouterr().err
        assert rc == 2 and err == f"error: {path}: not UTF-8 text (byte 0: invalid start byte)\n"

    def test_non_utf8_input_is_an_error_row(self, tmp_path, capsys):
        path = tmp_path / "bad.mcwc"
        path.write_bytes(b"mcwc 1 4\npart 1 5 2\n0 1\xe9\n")
        rc, out = run(["--format", "tsv", "verify", str(path)], capsys)
        assert rc == 1
        assert out.splitlines()[1].split("\t") == [
            str(path), "-", "ERROR", f"{path}: not UTF-8 text (byte 23: invalid continuation byte)"
        ]

    @pytest.mark.parametrize("text", ["", "# a comment\n\n   \n"], ids=["empty", "comment-only"])
    def test_empty_file_is_an_error_row(self, text, code_file, tmp_path, capsys):
        empty = tmp_path / "empty.mcwc"
        empty.write_text(text)
        rc, out = run(["--format", "tsv", "verify", code_file, str(empty), code_file], capsys)
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert rc == 1
        assert [row[2] for row in rows] == ["ok", "ERROR", "ok"]
        assert rows[1] == [str(empty), "-", "ERROR", "empty file"]

    def test_unknown_kind_is_an_error_row(self, code_file, tmp_path, capsys):
        other = tmp_path / "notes.txt"
        other.write_text("# a file of no known kind\nhello 1 2\n")
        rc, out = run(["--format", "tsv", "verify", str(other), code_file], capsys)
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert rc == 1
        assert rows[0] == [str(other), "hello", "ERROR", "unknown file kind 'hello'"]
        assert rows[1][2] == "ok"

    @pytest.mark.parametrize("argv,message", [
        (["bound", "--d", "4", "--lengths", "3,3"], "--lengths and --weights must be given together"),
        (["construct", "decomp", "design.decomp"], "--weights is required for decomp"),
    ], ids=["lengths-alone", "decomp-weights"])
    def test_missing_option_is_one_error_line(self, argv, message, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and captured.err == f"error: {message}\n"

    def test_bibd_outside_the_domain_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "design.bibd"
        path.write_text("bibd 0 3 -2 1\n")
        rc, out = run(["--format", "tsv", "verify", str(path)], capsys)
        assert rc == 1
        assert out.splitlines()[1].split("\t") == [
            str(path), "bibd", "INVALID", "a design needs v >= 2, k >= 2, lambda >= 1 and alpha >= 1"
        ]

    @pytest.mark.parametrize(
        "text",
        ["bibd 2 1 0 1\nclass\nblock 0\nblock 1\n", "bibd 3 2 0 0\nclass\n"],
        ids=["k-one", "alpha-zero"],
    )
    def test_bibd_without_a_class_count_is_an_error(self, text, tmp_path, capsys):
        path = tmp_path / "design.bibd"
        path.write_text(text)
        self.assert_error(["construct", "bibd", str(path)], capsys)

    def test_missing_file_is_an_error(self, code_file, tmp_path, capsys):
        self.assert_error(["verify", code_file, str(tmp_path / "absent.mcwc")], capsys)

    def test_small_shapes_never_crash(self, capsys):
        # includes infeasible shapes (w > n), where no word exists
        for cmd, m, n, w, d in itertools.product(
            ["bound", "search"], range(1, 4), range(1, 5), range(6), [0, 1, 2, 3, 4, 6, 9]
        ):
            argv = [cmd, "--m", str(m), "--n", str(n), "--w", str(w), "--d", str(d)]
            assert main(argv) in (0, 2), argv
            capsys.readouterr()

    def test_invalid_shipped_code_is_an_error(self, monkeypatch, capsys):
        from mcwc import cli

        monkeypatch.setattr(cli, "verify_mcwc", lambda code: VerificationReport(False, "forced"))
        rc = main(["table", "--n1", "3"])
        assert rc == 2
        assert capsys.readouterr().err == "error: shipped code (3,3) is invalid: forced\n"
