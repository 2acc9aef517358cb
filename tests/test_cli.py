"""Command-line interface: reproducibility, report formats, exit codes."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from fourierprg import cli
from fourierprg.apps import Halfspace, halfspace_error
from fourierprg.cli import (FAMILIES, VerifyCampaign, compose_plan_from_knobs,
                            main, run_campaign)
from fourierprg.compose import ComposePlan, build_generator
from fourierprg.core import KWiseGenerator, Refused
from fourierprg.metrics import WindowCapError
from fourierprg.shapes import EnumerateMode


CAMPAIGNS = pathlib.Path(__file__).resolve().parent.parent / "campaigns"

# sha256 of the report each shipped campaign writes (the bytes of
# `verify --campaign FILE --out REPORT`); golden's is the sha256 of
# golden.expected.jsonl
CAMPAIGN_SHA256 = {
    "chernoff-n64":
        "9040b7f8ee0254ab679b62387ad6e4d1fa74a6ea108dad480d3ec868aae67cef",
    "golden":
        "b23a0b340727e5befdd12389fd108c79a6a047c27f09fe08fcb04d8d75386692",
    "halfspaces-n12":
        "c6a3128d9880efa96be84f5b5f7377c88848642c039b59f4b286c62fd19bce56",
    "modular-m3":
        "c4d8643b8d9755643f24a2b1bc6796154a19d91ab4e44c7eb9f47dfc2b5aa8c0",
    "modular-m5":
        "877774cc4563d389f11d03e9c67e3da855a1ce3c3bd33ba5a7c4a9b4780ec0b2",
    "modular-m6":
        "87893818b8f87b619e755aceb83fa490b8363cf263d93e65c608b39589ca420e",
    "shapes-m2-n8":
        "7cd72f443a5b6c12d15add9e580f1a88211c52ed7b3c5bdef0fc8126e24391cd",
}


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
    with pytest.raises(ValueError, match="unknown knob"):
        compose_plan_from_knobs({"bogus": 1})
    # a float knob takes an int or a float and keeps it as given, so the
    # report header echoes it as given
    assert type(compose_plan_from_knobs({"c_T": 1}).c_T) is int
    assert compose_plan_from_knobs({"c_T": 0.5}).c_T == 0.5
    # an int knob takes only an int
    for val in (8.0, "8", True, None, [8]):
        with pytest.raises(ValueError, match="bucket_p"):
            compose_plan_from_knobs({"bucket_p": val})
    for val in ("0.5", False):
        with pytest.raises(ValueError, match="c_T"):
            compose_plan_from_knobs({"c_T": val})


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


@pytest.mark.parametrize("path", sorted(CAMPAIGNS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_campaign_report_bytes(path):
    # every shipped campaign is pinned, so a new one must add its hash
    report = run_campaign(VerifyCampaign.from_json(path.read_text()))
    text = "".join(line + "\n" for line in report.lines())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CAMPAIGN_SHA256[path.stem]


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


def test_only_cap_refusals_are_recorded(monkeypatch):
    # the three exact-evaluation caps raise Refused, which a campaign
    # records; any other ValueError is a usage error and propagates
    g = KWiseGenerator(2, 10, 2)
    with pytest.raises(Refused, match="patterns exceed cap"):
        g.output_pmf(pattern_cap=4)
    with pytest.raises(Refused, match="enumeration cap"):
        next(g.enumerate_outputs(seed_cap=4))
    assert issubclass(WindowCapError, Refused)
    with pytest.raises(Refused, match="cap is 4"):
        halfspace_error(g, Halfspace([3] * 10, 1), EnumerateMode(),
                        window_cap=4)

    def fails(c, g, rng, index):
        raise ValueError("not a cap")

    monkeypatch.setitem(cli.MEASURE, "shapes", fails)
    with pytest.raises(ValueError, match="not a cap"):
        run_campaign(VerifyCampaign("shapes", 2, 8, 0.1, 2))


@pytest.mark.parametrize("flags, field", [
    (["--family", "modular", "--modulus", "1"], "modulus"),
    (["--family", "shapes", "--count", "0"], "count"),
    (["--family", "shapes", "--mode", "sample", "--samples", "0"],
     "n_samples"),
], ids=["modulus", "count", "samples"])
def test_campaign_out_of_range_field_is_a_usage_error(capsys, flags, field):
    code, out, err = run_main(capsys, "verify", "--m", "2", "--n", "8",
                              "--eps", "0.1", *flags)
    assert code == 2 and out == ""
    assert field in err


def test_halfspaces_over_three_symbols_are_measured():
    # halfspaces over [m]^n for any m, as the paper's general domains
    report = run_campaign(VerifyCampaign("halfspaces", 3, 4, 0.1, 4,
                                         mode="sample", n_samples=20_000))
    assert report.summary["refused"] == 0
    assert report.summary["pass"]
    assert all(r["seeds_evaluated"] == 20_000 for r in report.instances)


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


def test_float_for_int_knob_is_a_usage_error(capsys):
    code, _, err = run_main(capsys, "verify", "--family", "shapes",
                            "--m", "2", "--n", "128", "--eps", "0.1",
                            "--count", "1", "--mode", "sample",
                            "--samples", "64", "--knob", "bucket_p=8.0")
    assert code == 2 and "bucket_p" in err
    code, _, err = run_main(capsys, "gen", "--m", "2", "--n", "128",
                            "--eps", "0.1", "--knob", "inw_state_extra=2.0")
    assert code == 2 and "inw_state_extra" in err


def test_config_file_knob_types_checked(tmp_path, capsys):
    cfg = tmp_path / "knobs.cfg"
    cfg.write_text("bucket_p = 8.0\n")
    code, _, err = run_main(capsys, "verify", "--family", "shapes",
                            "--m", "2", "--n", "8", "--eps", "0.1",
                            "--count", "1", "--config", str(cfg))
    assert code == 2 and "bucket_p" in err


@pytest.mark.parametrize("knobs,name", [
    ({"bucket_p": 8.0}, "bucket_p"), ({"n0": "32"}, "n0"),
    ({"c_T": None}, "c_T"), ({"bogus": 1}, "unknown knob")])
def test_campaign_file_knob_types_checked(tmp_path, capsys, knobs, name):
    text = json.loads(VerifyCampaign("shapes", 2, 8, 0.1, 1).to_json())
    text["knobs"] = knobs
    for generator in ("composed", "uniform-stub"):
        text["generator"] = generator
        camp = tmp_path / "campaign.json"
        camp.write_text(json.dumps(text))
        code, _, err = run_main(capsys, "verify", "--campaign", str(camp))
        assert code == 2 and name in err


@pytest.mark.parametrize("knob,limit", [
    ("n0=0", ">= 2"), ("n0=1", ">= 2"), ("inw_block_bits=0", ">= 1"),
    ("inw_state_extra=0", ">= 1"), ("inw_state_extra=-5", ">= 1"),
    ("bucket_p=0", ">= 1"),
    ("max_levels=-1", ">= 0"), ("delta_map=0", "> 0"), ("c_T=-0.5", "> 0"),
    ("C_alpha=0", "> 0"), ("C_dim=-1e-3", "> 0")])
def test_out_of_range_knob_is_a_usage_error(capsys, knob, limit):
    code, out, err = run_main(capsys, "gen", "--m", "2", "--n", "128",
                              "--eps", "0.1", "--knob", knob)
    name = knob.split("=")[0]
    assert code == 2 and out == ""
    assert f"knob {name} must be {limit}" in err


@pytest.mark.parametrize("knob", [
    "inw_state_extra=14", "inw_state_extra=20", "inw_block_bits=20"])
@pytest.mark.parametrize("n", ["64", "128"])
def test_inw_base_state_above_16_bits_is_refused(capsys, knob, n):
    # an INW state above 16 bits is refused naming the knob, not clamped
    code, out, err = run_main(capsys, "gen", "--m", "2", "--n", n,
                              "--eps", "0.1", "--knob", knob)
    assert code == 2 and out == ""
    assert "inw-base" in err and knob.split("=")[0] in err


def test_uniform_stub_refuses_non_power_of_two_alphabet(capsys):
    # m^n codes read from n*ceil(log2 m) seed bits are not uniform, so the
    # stub would report its own bias rather than a measurement
    code, out, err = run_main(capsys, "verify", "--family", "modular",
                              "--m", "3", "--n", "6", "--eps", "0.001",
                              "--count", "3", "--generator", "uniform-stub")
    assert code == 2 and out == ""
    assert "power-of-two" in err and "m = 3" in err


def test_gen_seed_is_a_plain_hex_integer(capsys):
    g = build_generator(2, 8, 0.1)
    assert g.seed_bits == 12
    for text, seed in (("5", 5), ("005", 5), ("a1", 0xA1), ("fff", 0xFFF)):
        code, out, _ = run_main(capsys, "gen", "--m", "2", "--n", "8",
                                "--eps", "0.1", "--seed", text)
        assert code == 0
        assert out.split("\n")[1] == " ".join(str(v) for v in
                                               g.generate(seed))
