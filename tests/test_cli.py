import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from ergm_cluster import cli, expansion, expansion_report, optimal_M, subsets
from ergm_cluster.cli import build_parser, main, render_json, write_artifact
from ergm_cluster.graphs import BUILTIN_MOTIFS
from ergm_cluster.lattice import Interaction

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

FIG_DOC = '{"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [1, 3]]}'


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(FIG_DOC)
    return str(path)


def assert_carries(doc: dict, report) -> None:
    """An expand JSON artifact, read back, holds the report's every number.

    Each is finite here, so each reads back as the float it was.
    """
    cert = report.certificate
    assert doc == {
        "n": report.n, "motifs": list(report.motif_names), "betas": list(report.betas),
        "norm": report.norm, "log_w_exact": report.log_w_exact,
        "orders": [row._asdict() for row in report.orders],
        "kp": {"M": cert.M, "max_site_sum": cert.max_site_sum, "logM": cert.log_m,
               "margin": cert.margin, "worst_site": list(cert.worst_site),
               "verdict": cert.verdict, "tail_order": cert.tail_order,
               "divergent": False, "reason": cert.reason},
        "region": {"p": report.p, "m": report.m, "M": report.M,
                   "beta_budget": report.beta_budget}}


class TestRenderJson:
    def test_scalars(self):
        assert render_json(None) == "null"
        assert render_json(True) == "true"
        assert render_json(3) == "3"
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(float("inf")) == "null"
        assert render_json("a\nb") == '"a\\nb"'

    def test_containers(self):
        assert render_json({}) == "{}"
        assert render_json([]) == "[]"
        doc = {"b": 1, "a": [1.5, None]}
        text = render_json(doc)
        # insertion order preserved, floats full precision
        assert text.index('"b"') < text.index('"a"')
        assert json.loads(text) == {"b": 1, "a": [1.5, None]}

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            render_json(object())

    def test_rejects_a_record_but_not_a_plain_tuple(self):
        row = expansion.OrderRow(order=1, partial_sum=0.5, gap_to_exact=0.25, tail_bound=None)
        for record in (row, {"rows": [row]}):
            with pytest.raises(TypeError, match="OrderRow"):
                render_json(record)
        assert render_json(tuple(row)) == render_json(list(row)) == \
            "[\n  1,\n  0.5,\n  0.25,\n  null\n]"

    def test_floats_round_trip(self):
        for x in (0.1, 1 / 3, math.pi, 1e-300, 123456.789):
            assert json.loads(render_json(x)) == x


class TestWriteArtifact:
    def test_creates_parents_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "doc.json"
        write_artifact(target, "one\n")
        write_artifact(target, "two\n")
        assert target.read_text() == "two\n"
        assert [p.name for p in target.parent.iterdir()] == ["doc.json"]

    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "doc.json"
        write_artifact(target, "one\n")
        with pytest.raises(TypeError):
            write_artifact(target, b"two\n")  # a text file takes no bytes
        assert target.read_text() == "one\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestDensity:
    def test_hom_variant(self, fig_file, capsys):
        assert main(["density", "--motif", "two-star", "--graph", fig_file]) == 0
        assert capsys.readouterr().out == "18/64\n"

    def test_sites_single(self, capsys):
        rc = main(["density", "--motif", "two-star", "--n", "4",
                   "--sites", "[[0, 1]]"])
        assert rc == 0
        assert capsys.readouterr().out == "2/64\n"

    def test_sites_adjacent_pair(self, capsys):
        rc = main(["density", "--motif", "two-star", "--n", "4",
                   "--sites", "[[0, 1], [1, 2]]"])
        assert rc == 0
        assert capsys.readouterr().out == "2/64\n"

    def test_sites_disjoint_pair(self, capsys):
        rc = main(["density", "--motif", "two-star", "--n", "4",
                   "--sites", "[[0, 1], [2, 3]]"])
        assert rc == 0
        assert capsys.readouterr().out == "0/64\n"

    def test_n_must_agree_with_graph(self, fig_file, capsys):
        rc = main(["density", "--motif", "edge", "--graph", fig_file, "--n", "5"])
        assert rc == 2
        assert "disagrees" in capsys.readouterr().err

    def test_n_must_agree_with_graph_given_sites(self, fig_file, capsys):
        rc = main(["density", "--motif", "two-star", "--graph", fig_file, "--n", "9",
                   "--sites", "[[0, 1], [1, 2]]"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "--n 9 disagrees with the graph file (n=4)"
        assert main(["density", "--motif", "two-star", "--graph", fig_file, "--n", "4",
                     "--sites", "[[0, 1], [1, 2]]"]) == 0
        assert capsys.readouterr().out == "2/64\n"

    def test_sites_need_a_vertex_count(self, capsys):
        assert main(["density", "--motif", "edge", "--sites", "[[0, 1]]"]) == 2

    def test_json_artifact(self, fig_file, tmp_path, capsys):
        out = tmp_path / "density.json"
        rc = main(["density", "--motif", "two-star", "--graph", fig_file,
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc == {"motif": "two-star", "kind": "hom", "n": 4,
                       "numerator": 18, "denominator": 64, "value": 18 / 64}


class TestRepresent:
    def test_holds_on_small_graph(self, fig_file, capsys):
        rc = main(["represent", "--motif", "two-star", "--graph", fig_file])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t = 18/64"
        assert out[1] == "subset decomposition matches: yes"

    def test_requires_graph(self, capsys):
        assert main(["represent", "--motif", "edge"]) == 2

    def test_sparse_large_graph(self, tmp_path, capsys):
        # Only the images inside E(G) are read, not the family on K_300; the
        # circulant graph is 4-regular, so hom(two-star, G) = 300 * 4^2.
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"n": 300, "edges": [[v, (v + d) % 300] for v in range(300)
                                                        for d in (1, 7)]}))
        start = time.perf_counter()
        assert main(["represent", "--motif", "two-star", "--graph", str(path)]) == 0
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().out == \
            "t = 4800/27000000\nsubset decomposition matches: yes\n"


class TestExact:
    def test_uniform_point(self, capsys):
        rc = main(["exact", "--motifs", "edge", "--betas", "0", "--n", "4"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "psi_4 = 0.25993019270997947"
        assert out[1] == "phi_4 = 0"
        assert out[2] == "E[edge] = 0.375"

    def test_csv_artifact_matches_golden(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["exact", "--motifs", "edge", "triangle",
                   "--betas", "0.05", "0.02", "--n", "4",
                   "--out", str(out), "--format", "csv"])
        assert rc == 0
        assert out.read_bytes() == (DATA / "ensemble_golden.csv").read_bytes()

    def test_json_artifact_reparses(self, tmp_path):
        out = tmp_path / "run.json"
        rc = main(["exact", "--motifs", "edge", "--betas", "0.3", "--n", "4",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"n", "motifs", "betas", "psi_n", "phi_n",
                            "log_w_normalized", "expectations"}
        want = 6 / 16 * math.log1p(math.exp(0.6))
        assert doc["psi_n"] == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("beta, phi", [
        ("-40", "-0.69314718055994529"),  # shifted sum: phi = -log 2
        ("50", "99.306852819440053"),  # log1p of a mean weight near e^600 / 64
        ("60", "119.30685281944005"),  # exp(720) would overflow: shifted sum
        ("1e-300", "1e-300"),  # log1p: log W = 6e-300 survives
    ])
    def test_log_w_branches(self, capsys, beta, phi):
        assert main(["exact", "--motifs", "edge", "--betas", beta, "--n", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"phi_4 = {phi}"

    @pytest.mark.parametrize("beta", ["-6.1e-05", "-6E-05", "-2e+00", "-.5e-3"])
    def test_negative_exponent_beta(self, tmp_path, beta):
        out = tmp_path / "run.json"
        assert main(["exact", "--motifs", "edge", "--betas", beta, "--n", "3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["betas"] == [float(beta)]

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "7"]])
    def test_seed_and_threads_rejected(self, capsys, flag):
        # The library is deterministic and single-threaded: neither flag exists.
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--motifs", "edge", "--betas", "0.1", "--n", "3", *flag])
        assert exc.value.code == 2


class TestExpand:
    ARGS = ["expand", "--motifs", "two-star", "--betas", "0.001", "--n", "4",
            "--max-links", "3"]

    def test_human_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.count("order ") == 4
        assert "verdict = pass" in out
        assert "beta budget at this M = " in out

    def test_failing_verdict_still_exits_zero(self, capsys):
        rc = main(["expand", "--motifs", "two-star", "--betas", "1.0", "--n", "4",
                   "--max-links", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict = FAIL" in out
        assert "reason:" in out

    def test_json_artifact_reparses_to_report(self, tmp_path):
        # run with library defaults so any drift between the CLI defaults
        # and the library defaults shows up as a mismatch
        out = tmp_path / "report.json"
        rc = main(["expand", "--motifs", "two-star", "--betas", "0.001",
                   "--n", "4", "--out", str(out)])
        assert rc == 0
        assert_carries(json.loads(out.read_text()), expansion_report(
            [BUILTIN_MOTIFS["two-star"]], [0.001], 4))

    def test_artifacts_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_certificate_at_max_links_and_the_optimal_base(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        kp = json.loads(out.read_text())["kp"]
        assert kp["tail_order"] == 3
        assert kp["M"] == optimal_M(2)

    @pytest.mark.parametrize("flag", [["--head-links", "2"], ["--M", "2"]])
    def test_certificate_depth_and_base_are_no_options(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("beta, passes", [("0.001", True), ("1.0", False)])
    def test_margin_and_worst_site_in_artifact(self, tmp_path, beta, passes):
        out = tmp_path / "report.json"
        argv = ["expand", "--motifs", "two-star", "--betas", beta, "--n", "4",
                "--max-links", "3", "--out", str(out)]
        assert main(argv) == 0
        kp = json.loads(out.read_text())["kp"]
        cert = expansion_report([BUILTIN_MOTIFS["two-star"]], [float(beta)], 4,
                                max_links=3).certificate
        assert kp["verdict"] is passes
        assert kp["worst_site"] == list(cert.worst_site)
        if passes:
            assert kp["margin"] == cert.margin == cert.log_m - cert.max_site_sum > 0
        else:
            # the norm cap makes every site sum inf: no finite margin to write
            assert cert.margin == -math.inf and kp["margin"] is None
            assert kp["worst_site"] == [0, 1]

    def test_missing_tail_bound_placeholders(self, tmp_path, capsys):
        # A single edge has p = 1: no tail function, so no order has a bound.
        argv = ["expand", "--motifs", "edge", "--betas", "0.01", "--n", "4", "--order", "3"]
        assert main([*argv, "--out", str(tmp_path / "a.json")]) == 0
        lines = capsys.readouterr().out.splitlines()[:3]
        assert [line.split(": ")[0] for line in lines] == ["order 1", "order 2", "order 3"]
        assert all(line.endswith(", tail bound = n/a") for line in lines)
        rows = json.loads((tmp_path / "a.json").read_text())["orders"]
        assert [row["tail_bound"] for row in rows] == [None] * 3
        assert main([*argv, "--out", str(tmp_path / "a.csv"), "--format", "csv"]) == 0
        cells = [line.split(",") for line in (tmp_path / "a.csv").read_text().splitlines()]
        assert [row[3] for row in cells] == ["tail_bound", "", "", ""]

    def test_csv_artifact(self, tmp_path):
        out = tmp_path / "orders.csv"
        rc = main(self.ARGS + ["--out", str(out), "--format", "csv"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,partial_sum,gap_to_exact,tail_bound"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) > 0


class TestRegion:
    def test_optimal_point(self, capsys):
        assert main(["region", "--p", "2", "--m", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "optimal M = 1.4419918742399591"
        assert out[2] == "beta budget = 0.0026846371081645369"

    def test_explicit_M(self, tmp_path, capsys):
        out = tmp_path / "region.json"
        rc = main(["region", "--p", "2", "--m", "3", "--M", "2.0",
                   "--out", str(out)])
        assert rc == 0
        assert "M = 2" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert set(doc) == {"p", "m", "M", "logM", "beta_budget"}
        assert doc["M"] == 2.0

    def test_single_site_rejected(self, capsys):
        assert main(["region", "--p", "1", "--m", "2"]) == 2


class TestCoeffs:
    def test_catalan_table(self, tmp_path, capsys):
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--p", "2", "--norm", "0.001", "--n-max", "6",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "series identity check: ok" in text
        assert "norm radius = " in text
        doc = json.loads(out.read_text())
        assert [r["gamma"] for r in doc["rows"]] == [
            "1/1", "2/1", "5/1", "14/1", "42/1", "132/1"]
        assert doc["divergent"] is False

    def test_divergent_tail_reported(self, capsys):
        rc = main(["coeffs", "--p", "2", "--norm", "0.3", "--n-max", "5"])
        assert rc == 0
        assert "divergent" in capsys.readouterr().out

    def test_single_site_needs_M(self, capsys):
        assert main(["coeffs", "--p", "1", "--norm", "0.1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "--M is required when p = 1 (no interior optimum)"
        assert main(["coeffs", "--p", "1", "--norm", "0.1", "--M", "2.0"]) == 0

    @pytest.mark.parametrize("p", ["0", "-3"])
    @pytest.mark.parametrize("M", [[], ["--M", "2.0"]])
    def test_p_checked_before_M(self, p, M, capsys):
        assert main(["coeffs", "--p", p, "--norm", "0.1", *M]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"edge count p must be a positive integer, got {p}",
            "kind": "invalid-config"}


def _cell(value) -> str:
    """A JSON value as a key-value CSV renders it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value if isinstance(value, float) else str(value)


class TestKeyValueArtifacts:
    @pytest.mark.parametrize("argv", [
        ["density", "--motif", "two-star", "--graph", "fig.json"],
        ["density", "--motif", "two-star", "--n", "4", "--sites", "[[0, 1], [1, 2]]"],
        ["represent", "--motif", "two-star", "--graph", "fig.json"],
        ["region", "--p", "2", "--m", "3"],
        ["region", "--p", "3", "--m", "4", "--M", "1.3"],
    ])
    def test_csv_and_json_carry_the_same_pairs(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig.json").write_text(FIG_DOC)
        assert main([*argv, "--out", "a.json"]) == 0
        assert main([*argv, "--out", "a.csv", "--format", "csv"]) == 0
        pairs = json.loads((tmp_path / "a.json").read_text(), object_pairs_hook=list)
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        assert [line.split(",", 1) for line in lines[1:]] == [[k, _cell(v)] for k, v in pairs]


class TestConfigPrecedence:
    def test_config_supplies_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"motifs": ["edge"], "betas": [0.0], "n": 4}')
        assert main(["exact", "--config", str(cfg)]) == 0
        assert "psi_4 = 0.25993019270997947" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"motifs": ["edge"], "betas": [0.0], "n": 4}')
        assert main(["exact", "--config", str(cfg), "--n", "3"]) == 0
        assert "psi_3" in capsys.readouterr().out

    def test_config_format_validated(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "xml"}')
        rc = main(["exact", "--config", str(cfg), "--motifs", "edge",
                   "--betas", "0.1", "--n", "3", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "unknown format" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["exact", "--config", str(cfg)]) == 2

    def test_config_must_parse(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert main(["exact", "--config", str(cfg)]) == 2

    def test_expand_options_from_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"motifs": ["two-star"], "betas": [0.001], "n": 7,
                                   "order": 2, "max_links": 1}))
        out = tmp_path / "report.json"
        assert main(["expand", "--config", str(cfg), "--out", str(out)]) == 0
        assert_carries(json.loads(out.read_text()), expansion_report(
            [BUILTIN_MOTIFS["two-star"]], [0.001], 7, order=2, max_links=1))
        assert main(["expand", "--config", str(cfg), "--order", "1", "--out", str(out)]) == 0
        assert [row["order"] for row in json.loads(out.read_text())["orders"]] == [1]

    def test_density_sites_and_n_from_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"motif": "two-star", "n": 4, "sites": [[0, 1], [1, 2]]}')
        assert main(["density", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "2/64\n"

    def test_values_parse_as_the_flags_parse_them(self, tmp_path, capsys):
        # Text parses as the flag's text would.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"motifs": ["edge"], "betas": ["0"], "n": "4"}')
        assert main(["exact", "--config", str(cfg)]) == 0
        assert "psi_4 = 0.25993019270997947" in capsys.readouterr().out

    def test_null_leaves_an_option_unset(self, tmp_path, capsys):
        # A null falls through to the built-in default, or to the missing-option
        # error where there is none.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"motifs": ["two-star"], "betas": [0.001], "n": 4, "order": null}')
        assert main(["expand", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count("order ") == 4
        cfg.write_text('{"motifs": ["edge"], "betas": [0.1], "n": null}')
        assert main(["exact", "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "missing required option --n"

    @pytest.mark.parametrize("command, extra", [
        ("exact", {"bettas": [0.2]}),
        ("exact", {"order": 2}),
        ("expand", {"max_link": 1, "ordr": 1}),
        ("expand", {"head_links": 2}),
        ("expand", {"M": 2.0}),
        ("expand", {"help": True}),
        # No option lifts a guard, so a config file cannot either.
        ("exact", {"force": False}),
        ("expand", {"force": True}),
    ])
    def test_keys_naming_no_option_are_refused(self, tmp_path, monkeypatch, capsys,
                                               command, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the config keys were checked")

        monkeypatch.setattr(cli, "ensemble_result", refuse)
        monkeypatch.setattr(expansion, "expansion_report", refuse)
        cfg = tmp_path / "cfg.json"
        motif = "edge" if command == "exact" else "two-star"
        cfg.write_text(json.dumps({"motifs": [motif], "betas": [0.001], "n": 4, **extra}))
        out = tmp_path / "run.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = json.loads(captured.err)
        assert err["kind"] == "invalid-config"
        assert err["error"] == f"config key {next(iter(extra))!r} names no option of {command}"


class TestFailureModes:
    def test_series_runs_at_n7_inside_the_budget(self, capsys):
        rc = main(["expand", "--motifs", "edge", "--betas", "0.1", "--n", "7",
                   "--max-links", "2", "--order", "2"])
        assert rc == 0
        # the exact reference was computed at n = 7 too
        assert "gap = n/a" not in capsys.readouterr().out

    def test_exact_at_n7(self, tmp_path, capsys):
        # The bits the command printed and wrote when n = 7 needed --force.
        out = tmp_path / "n7.json"
        rc = main(["exact", "--motifs", "edge", "triangle", "--betas", "0.05", "0.02",
                   "--n", "7", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ("psi_7 = 0.32083646621467499\n"
                                           "phi_7 = 0.05547124060762975\n"
                                           "E[edge] = 0.45515340087171335\n"
                                           "E[triangle] = 0.092391158500180925\n")
        assert json.loads(out.read_text()) == {
            "n": 7, "motifs": ["edge", "triangle"], "betas": [0.05, 0.02],
            "psi_n": 0.32083646621467499, "phi_n": 0.05547124060762975,
            "log_w_normalized": 1.1648960527602248,
            "expectations": [0.45515340087171335, 0.092391158500180925]}

    def test_sweep_budget_refuses_before_the_sweep(self, capsys):
        # Two-star+triangle at n = 7 visits 1.1e9 (polymer, subset) pairs per
        # order past the first: 3.3e9 through order 4, which ran 34.5 s.
        start = time.perf_counter()
        rc = main(["expand", "--motifs", "two-star", "triangle", "--betas", "0.001", "0.001",
                   "--n", "7", "--order", "4"])
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err == {"error": "the polymer-gas sweep through order 4 visits 3290627349 "
                                "(polymer, subset) pairs, past the budget of 67108864",
                       "kind": "guard",
                       "hint": "lower --order or --max-links, or use a smaller --n"}

    @pytest.mark.parametrize("argv", [
        ["density", "--motif", "edge", "--n", "4", "--sites", "[[0, 1]]"],
        ["represent", "--motif", "edge", "--graph", "fig.json"],
        ["exact", "--motifs", "edge", "--betas", "0.1", "--n", "7"],
        ["expand", "--motifs", "edge", "--betas", "0.1", "--n", "7"],
        ["region", "--p", "2", "--m", "3"],
        ["coeffs", "--p", "2", "--norm", "0.01"],
    ])
    def test_force_is_no_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--force"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    def test_budget_hint_names_the_real_remedy(self, monkeypatch, capsys):
        monkeypatch.setattr(subsets, "DEFAULT_MAX_COUNT", 10)
        start = time.perf_counter()
        rc = main(["expand", "--motifs", "two-star", "--betas", "0.001", "--n", "4",
                   "--order", "1", "--max-links", "2"])
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "guard"
        assert err["hint"] == "lower --max-links"

    def test_expand_n6_runs_inside_tail_bounds(self, tmp_path):
        # the site-mask table at n = 6 is inside the guard: no exit 3
        out = tmp_path / "n6.json"
        rc = main(["expand", "--motifs", "two-star", "triangle", "--betas", "0.001",
                   "0.001", "--n", "6", "--order", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [row["order"] for row in doc["orders"]] == [1, 2]
        for row in doc["orders"]:
            assert row["gap_to_exact"] <= row["tail_bound"]

    @pytest.mark.parametrize("command", ["exact", "expand"])
    @pytest.mark.parametrize("n", ["8", "100000"])
    def test_ceiling_refuses_before_work(self, command, n, capsys):
        start = time.perf_counter()
        rc = main([command, "--motifs", "edge", "--betas", "0.1", "--n", n])
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["kind"] == "guard"
        assert err["hint"] == "no option lifts the ceiling: use n <= 7"

    def test_underflowing_coupling_named(self, capsys):
        # K's exact value on the two-star's single sites is below the least
        # subnormal; a 0.0 a caller stores keeps Interaction's own message.
        assert main(["exact", "--motifs", "two-star", "--betas", "5e-324", "--n", "5"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "the exact K of the class of ((0, 1),) is nonzero but underflows to 0.0",
            "kind": "invalid-config"}
        with pytest.raises(ValueError, match=r"^exact zero stored at \(\(0, 1\),\)$"):
            Interaction(5, {((0, 1),): 0.0}, 2)

    def test_expand_n7_refused_up_front(self, capsys):
        start = time.perf_counter()
        rc = main(["expand", "--motifs", "two-star", "triangle", "--betas", "0.001",
                   "0.001", "--n", "7", "--order", "2"])
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "guard"

    @pytest.mark.parametrize("argv", [
        ["exact", "--motifs", "edge", "--betas", "inf", "--n", "4"],
        ["exact", "--motifs", "edge", "--betas", "nan", "--n", "4"],
        ["expand", "--motifs", "two-star", "--betas", "1e308", "--n", "4"],
        ["exact", "--motifs", "edge", "triangle", "--betas", "5e307", "0.1", "--n", "4"],
        ["coeffs", "--p", "2", "--norm", "nan", "--n-max", "12"],
        ["region", "--p", "2", "--m", "3", "--M", "inf"],
    ])
    def test_non_finite_and_overflowing_inputs(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "invalid-config"

    @pytest.mark.parametrize("argv", [
        ["density", "--motif", "two-star", "--graph", "g.json"],
        ["density", "--motif", "two-star", "--n", "0", "--sites", "[]"],
        ["density", "--motif", "two-star", "--n", "-1", "--sites", "[]"],
    ])
    def test_density_needs_a_vertex(self, argv, tmp_path, monkeypatch, capsys):
        # t(H, G) divides by n^m, which is 0 at n = 0.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(json.dumps({"n": 0, "edges": []}))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "invalid-config"

    @pytest.mark.parametrize("argv,message", [
        ("expand --motifs two-star --betas 600 --n 4 --order 2",
         "the partial sum through order 1 is inf; the largest link is ((0, 1),), with K = 300.0"),
        ("expand --motifs two-star --betas 10000 --n 4 --order 2",
         "the partial sum through order 1 is inf; the largest link is ((0, 1),), "
         "with K = 5000.0"),
        ("coeffs --p 2 --norm 1.2e102 --n-max 3",
         "abar_3 = gamma_3 c^3 is past the float range at c = 4.990417356897768e+102"),
        ("coeffs --p 2 --norm 1e200 --M 1.5 --n-max 3",
         "abar_2 = gamma_2 c^2 is past the float range at c = 4.5e+200"),
        ("region --p 2 --m 3 --M 1e300",
         "(M p)^p is past the float range at M = 1e+300, p = 2"),
        ("coeffs --p 2 --norm 0.1 --M 1e300",
         "(M p)^p is past the float range at M = 1e+300, p = 2"),
        ("coeffs --p 200 --norm 0.001",
         "(M p)^p is past the float range at M = 1.0030992434091761, p = 200"),
        ("exact --motifs edge --betas 1e308 --n 3",
         "the exact K of the class of ((0, 1),) is past the float range"),
        ("expand --motifs edge --betas 1e308 --n 3",
         "the exact K of the class of ((0, 1),) is past the float range"),
    ], ids=["expand-600", "expand-10000", "coeffs-1.2e102", "coeffs-1e200", "region-M1e300",
            "coeffs-M1e300", "coeffs-p200", "exact-K1e308", "expand-K1e308"])
    def test_overflow_exits_2_before_any_output(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": message, "kind": "invalid-config"}

    @pytest.mark.parametrize("argv,message", [
        ("density --motif triangle --n 3 --sites [[0.5,1],[1,2],[0,2]]",
         "vertex pair (0.5, 1) must be integers"),
        ("density --motif triangle --graph g1.json", "vertex pair (0.9, 1) must be integers"),
        ("density --motif m.json --n 3 --sites [[0,1]]", "vertex pair (0, 1.7) must be integers"),
        ("density --motif triangle --graph g2.json", "vertex count '3' must be an integer"),
        ("density --motif triangle --graph g3.json", "vertex count 3.9 must be an integer"),
        ("density --motif triangle --n 3 --sites 5",
         "--sites must be a JSON list of vertex pairs, got '5'"),
        ("density --motif triangle --n 3 --sites [[0,1,2]]",
         "--sites must be a JSON list of vertex pairs, got '[[0,1,2]]'"),
    ], ids=["sites-0.5", "graph-0.9", "motif-1.7", "graph-strings", "graph-n3.9", "sites-int",
            "sites-triple"])
    def test_json_vertex_ids_are_not_truncated(self, argv, message, tmp_path, monkeypatch,
                                               capsys):
        # Each of these once read a float, string or bool as a truncated int and exited 0.
        monkeypatch.chdir(tmp_path)
        for name, doc in [("g1", {"n": 3, "edges": [[0.9, 1], [1, 2], [0, 2]]}),
                          ("g2", {"n": "3", "edges": [["0", "1"], [True, 2]]}),
                          ("g3", {"n": 3.9, "edges": [[0.9, 1]]}),
                          ("m", {"name": "m", "m": 3, "edges": [[0, 1.7], [1, 2]]})]:
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": message, "kind": "invalid-config"}

    def test_overflow_writes_nothing_but_the_error(self):
        # Run apart, so numpy's warnings would reach stderr unfiltered.
        proc = subprocess.run(
            [sys.executable, "-m", "ergm_cluster.cli", "expand", "--motifs", "two-star",
             "--betas", "600", "--n", "4", "--order", "2"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["kind"] == "invalid-config"

    def test_negative_max_links_refused(self, capsys):
        rc = main(["expand", "--motifs", "two-star", "--betas", "0.001", "--n", "4",
                   "--max-links", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["kind"] == "invalid-config"
        assert err["error"] == "max_links cannot be negative"

    def test_exact_needs_two_vertices(self, capsys):
        # phi_n divides log W by C(n,2), which is 0 at n = 1.
        assert main(["exact", "--motifs", "edge", "--betas", "0.1", "--n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "invalid-config"

    @pytest.mark.parametrize("argv,code", [
        (["expand", "--motifs", "edge", "--betas", "0.1", "--n", "100000"], 3),
        (["coeffs", "--p", "20000", "--norm", "1e-9"], 2),
        (["region", "--p", "3000000", "--m", "3"], 2),
        (["coeffs", "--p", "3000000", "--norm", "1e-9"], 2),
        (["region", "--p", "10000000", "--m", "3"], 2),
        (["coeffs", "--p", "20000", "--norm", "0"], 0),
        # more than 5 000 000 connected sets, counted before the fifth level exists
        (["expand", "--motifs", "two-star", "triangle", "--betas", "0.0005", "0.0004",
          "--n", "6", "--order", "2", "--max-links", "5"], 3),
    ])
    def test_huge_sizes_refused_up_front(self, argv, code, capsys):
        start = time.perf_counter()
        rc = main(argv)
        assert time.perf_counter() - start < 1.0
        assert rc == code

    @pytest.mark.parametrize("argv,cfg", [
        (["density", "--motif", "edge", "--n", "4", "--sites", "5"], {}),
        (["exact", "--motifs", "edge", "--n", "3"], {"betas": 0.1}),
        (["exact", "--motifs", "edge", "--n", "3"], {"betas": [[0.1]]}),
        (["exact", "--motifs", "edge", "--betas", "0.1"], {"n": [3]}),
        (["exact", "--betas", "0.1", "--n", "3"], {"motifs": 5}),
        (["exact", "--motifs", "edge", "--betas", "0.1", "--n", "3"], {"out": 5}),
        (["expand", "--motifs", "edge", "--betas", "0.1", "--n", "3"], {"order": [2]}),
        (["coeffs", "--p", "2"], {"norm": [0.1]}),
        # The flags refuse each of these, so the file must too.
        (["exact", "--motifs", "edge", "--betas", "0.1"], {"n": 3.7}),
        (["expand", "--motifs", "edge", "--betas", "0.1", "--n", "3"], {"order": 2.9}),
        (["exact", "--motifs", "edge", "--n", "3"], {"betas": [True]}),
    ])
    def test_wrongly_typed_values(self, argv, cfg, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert main(argv + ["--config", str(config)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "invalid-config"

    def test_mismatched_weights(self, capsys):
        rc = main(["exact", "--motifs", "edge", "triangle",
                   "--betas", "0.1", "--n", "3"])
        assert rc == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_unknown_motif(self, fig_file, capsys):
        rc = main(["density", "--motif", "pentagon", "--graph", fig_file])
        assert rc == 2
        assert "pentagon" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,error", [
        (["exact", "--betas", "0.1", "--n", "3"], "at least one motif is required"),
        (["expand", "--betas", "0.1", "--n", "3"], "at least one motif is required"),
        (["exact", "--motifs", "edge", "--n", "3"], "parameter values are required"),
        (["expand", "--motifs", "edge", "--n", "3"], "parameter values are required"),
        (["density", "--n", "3", "--sites", "[[0, 1]]"], "--motif is required"),
        (["represent", "--graph", "fig.json"], "--motif is required"),
        (["density", "--motif", "edge"], "--graph is required without --sites"),
        (["coeffs", "--p", "2"], "--norm is required"),
    ])
    def test_required_options(self, argv, error, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": error, "kind": "invalid-config"}

    @pytest.mark.parametrize("isolated,code", [(21, 0), (23, 2)])
    def test_hom_table_inside_int64(self, isolated, code, tmp_path, capsys):
        # hom(H, K_6) = 30 * 6^isolated passes 2^63 between 21 and 23.
        path = tmp_path / "padded.json"
        path.write_text(json.dumps({"name": "padded", "m": isolated + 2, "edges": [[0, 1]]}))
        assert main(["exact", "--motifs", str(path), "--betas", "1e-20", "--n", "6"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["kind"] == "invalid-config" and "int64" in err["error"]
        else:
            assert captured.out.splitlines()[-1] == "E[padded] = 0.41666666666666669"

    def test_map_budget_refuses_up_front(self, tmp_path, capsys):
        path = tmp_path / "p11.json"
        path.write_text(json.dumps({"name": "P11", "m": 11,
                                    "edges": [[i, i + 1] for i in range(10)]}))
        start = time.perf_counter()
        rc = main(["exact", "--motifs", str(path), "--betas", "0.01", "--n", "6"])
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["kind"] == "guard" and "58593750" in err["error"]
        assert err["hint"] == ("use a motif with fewer vertices, a smaller --n, "
                               "or a smaller or sparser --graph")

    def test_map_budget_admits_a_dense_graph_file(self, tmp_path, capsys):
        # hom_count on K_300 walks 300 * 299 placements of a two-star's first
        # two vertices, though 300 * 299^2 maps are past the budget.
        n = 300
        path = tmp_path / "k300.json"
        path.write_text(json.dumps({"n": n, "edges": [[i, j] for i in range(n)
                                                      for j in range(i + 1, n)]}))
        start = time.perf_counter()
        assert main(["density", "--motif", "two-star", "--graph", str(path)]) == 0
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().out == f"{n * (n - 1) ** 2}/{n ** 3}\n"

    def test_missing_n(self, capsys):
        assert main(["exact", "--motifs", "edge", "--betas", "0.1"]) == 2

    def test_bad_format_flag_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exact", "--motifs", "edge", "--betas", "0.1", "--n", "3",
                  "--format", "xml", "--out", "x"])
        assert info.value.code == 2

    def test_missing_graph_file(self, capsys):
        assert main(["density", "--motif", "edge", "--graph", "no-such.json"]) == 2


class TestReadme:
    def test_command_line_block_runs(self, tmp_path, monkeypatch, capsys):
        # Every command of the README's command-line block exits 0, and each
        # "# -> x" line is the stdout of the command before it.
        text = (SRC.parent / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        commands, stdout = 0, None
        for line in block.splitlines():
            if line.startswith("echo "):
                doc, redirect, target = shlex.split(line)[1:]
                assert redirect == ">"
                Path(target).write_text(doc + "\n")
            elif line.startswith("ergm-cluster "):
                assert main(shlex.split(line)[1:]) == 0, line
                stdout = capsys.readouterr().out
                commands += 1
            elif line.startswith("# -> "):
                assert stdout == line[len("# -> "):] + "\n"
            else:
                assert line == "" or line.startswith("# "), line
        assert commands


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ergm_cluster.cli", "region", "--p", "2", "--m", "3"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0
        assert "beta budget = 0.0026846371081645369" in proc.stdout
