import io
import json
import os
import time

import pytest

from specnet.cli import main
from specnet.network import network_from_json

from conftest import EXAMPLES


@pytest.fixture()
def weave_file(tmp_path):
    path = tmp_path / "example.weave"
    path.write_text(EXAMPLES["mutation_a"])
    return str(path)


def test_augmentation_table(weave_file, capsys):
    assert main(["augmentation", weave_file]) == 0
    out = capsys.readouterr().out
    assert "z_1 = s_1" in out
    assert "t_2 = -s_1*s_2" in out


def test_augmentation_json(weave_file, capsys):
    assert main(["augmentation", weave_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t_1"] == "-s_1^-1*s_2^-1"


def test_packaged_fixture_names_resolve(capsys):
    assert main(["augmentation", "mutation_a"]) == 0


def test_fixture_root_env_var(tmp_path, monkeypatch, capsys):
    (tmp_path / "custom.weave").write_text(EXAMPLES["mutation_b"])
    monkeypatch.setenv("SPECNET_FIXTURES", str(tmp_path))
    assert main(["augmentation", "custom"]) == 0
    assert "z_2 = s_2" in capsys.readouterr().out


def test_weave_network_json_round_trips(weave_file, capsys):
    assert main(["weave-network", weave_file, "--format", "json"]) == 0
    net = network_from_json(capsys.readouterr().out)
    assert len(net.walls) == 6


def test_svg_deterministic(weave_file, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for target in (a, b):
        assert main(["weave-network", weave_file, "--format", "svg",
                     "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_compare_match_and_mismatch(weave_file, tmp_path, capsys):
    assert main(["augmentation", weave_file, "--format", "json",
                 "--out", str(tmp_path / "computed.json")]) == 0
    assert main(["compare", str(tmp_path / "computed.json"),
                 "mutation_a.json"]) == 0
    assert main(["compare", str(tmp_path / "computed.json"),
                 "mutation_b.json"]) == 1
    out = capsys.readouterr().out
    assert "mismatch at" in out


def test_compare_reports_first_differing_chord(tmp_path, capsys):
    good = {"z_1": "s_1", "z_2": "s_2"}
    bad = {"z_1": "s_1", "z_2": "s_2 + s_1^-1"}
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    assert main(["compare", str(tmp_path / "good.json"),
                 str(tmp_path / "bad.json")]) == 1
    assert "mismatch at z_2" in capsys.readouterr().out


def test_compare_rejects_non_integer_table(tmp_path, capsys):
    """Augmentation tables are integer Laurent polynomials: 1/2 is no unit."""
    (tmp_path / "half.json").write_text(json.dumps({"z_1": "1/2*s_1"}))
    (tmp_path / "zero.json").write_text(json.dumps({"z_1": "0"}))
    assert main(["compare", str(tmp_path / "half.json"), str(tmp_path / "zero.json")]) == 2
    assert "coefficient 2 is not a unit over the integers" in capsys.readouterr().err


def test_wkb_trace_svg(tmp_path):
    out = tmp_path / "airy.svg"
    assert main(["wkb-trace", "--curve", "w^2 - z", "--theta", "0",
                 "--mass", "10", "--radius", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polygon") == 1  # one branch point glyph


def test_wkb_trace_explicit_format_beats_out_suffix(tmp_path):
    out = tmp_path / "airy.svg"
    argv = ["wkb-trace", "--curve", "w^2 - z", "--theta", "0",
            "--mass", "10", "--radius", "5", "--out", str(out)]
    assert main(argv + ["--format", "json"]) == 0
    assert len(json.loads(out.read_text())["walls"]) == 3
    config = tmp_path / "run.cfg"
    config.write_text("format = json\n")
    out.unlink()
    assert main(argv + ["--config", str(config)]) == 0
    assert len(json.loads(out.read_text())["walls"]) == 3


@pytest.mark.parametrize("key", ["mass", "radius"])
def test_wkb_trace_rejects_infinite_mass_and_radius(key, tmp_path, monkeypatch):
    import specnet.wkb

    def never(*args, **kwargs):
        raise AssertionError("traced a network from a non-finite bound")

    monkeypatch.setattr(specnet.wkb, "build_wkb_network", never)
    argv = ["wkb-trace", "--curve", "w^2 - z", "--theta", "0"]
    with pytest.raises(ValueError, match="positive and finite"):
        main(argv + ["--" + key, "inf"])
    config = tmp_path / "run.cfg"
    config.write_text("%s = inf\n" % key)
    with pytest.raises(ValueError, match="positive and finite"):
        main(argv + ["--config", str(config)])


def test_wkb_trace_json(capsys):
    assert main(["wkb-trace", "--curve", "w^2 - z", "--theta", "0",
                 "--mass", "10", "--radius", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["walls"]) == 3
    assert doc["theta"] == 0.0


def test_config_file_overrides_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# raise the phase\ntheta = 0.25\nradius = 4\n")
    assert main(["wkb-trace", "--curve", "w^2 - z", "--theta", "0",
                 "--mass", "10", "--radius", "5",
                 "--config", str(config)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == 0.25


def test_unknown_config_key_fails(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        main(["augmentation", "mutation_a", "--config", str(config)])


def test_removed_tolerance_key_fails(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("tolerance = 1e-9\n")
    with pytest.raises(ValueError, match="unknown config key 'tolerance'"):
        main(["augmentation", "mutation_a", "--config", str(config)])


@pytest.mark.parametrize("argv", [
    ["augmentation", "mutation_a", "--format", "svg"],
    ["bps", "mutation_a", "--format", "svg"],
    ["bps", "mutation_a", "--seed", "1"],
    ["weave-network", "mutation_a", "--seed", "1"],
    ["wkb-trace", "--curve", "w^2 - z", "--seed", "1"],
    ["nonabelianize", "mutation_a", "--format", "json"],
    ["compare", "a.json", "b.json", "--config", "run.cfg"],
], ids=["augmentation-svg", "bps-svg", "bps-seed", "weave-network-seed",
        "wkb-trace-seed", "nonabelianize-format", "compare-config"])
def test_flags_a_subcommand_never_reads_are_rejected(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)


def test_other_subcommands_config_keys_fail(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("theta = 0.25\n")
    with pytest.raises(ValueError, match="unknown config key 'theta'"):
        main(["augmentation", "mutation_a", "--config", str(config)])
    config.write_text("input = w^2 - z\n")
    with pytest.raises(ValueError, match="unknown config key 'input'"):
        main(["wkb-trace", "--curve", "w^2 - z", "--config", str(config)])


def test_config_values_are_checked_like_flags(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("format = svg\n")
    with pytest.raises(ValueError, match="config key 'format' must be one of"):
        main(["augmentation", "mutation_a", "--config", str(config)])
    config.write_text("systems = many\n")
    with pytest.raises(ValueError):
        main(["nonabelianize", "mutation_a", "--config", str(config)])


def test_config_file_sets_the_curve(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("curve = w^2 - z\nmass = 10\nradius = 5\n")
    assert main(["wkb-trace", "--curve", "w^3 - 3*w + x", "--theta", "0",
                 "--config", str(config)]) == 0
    assert len(json.loads(capsys.readouterr().out)["walls"]) == 3


def test_invalid_curve_exits_nonzero(capsys):
    assert main(["wkb-trace", "--curve", "w - z", "--theta", "0",
                 "--mass", "10", "--radius", "5"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("curve", ["w^2 - 1/z", "w^2 - z^-1", "w^(1/2) - z",
                                   "w^2.5 - z", "w^z - 1", "w^2 - 1/0"])
def test_non_polynomial_curve_exits_2(curve, capsys):
    assert main(["wkb-trace", "--curve", curve, "--theta", "0.1",
                 "--mass", "3", "--radius", "3"]) == 2
    assert "error [wkb-trace]" in capsys.readouterr().err


@pytest.mark.parametrize("curve", ["w^2 - z^(10**6)", "w^(10**6) - z", "w^17 - z",
                                   "w^3 - z^65"])
def test_oversized_curve_exits_2(curve, capsys):
    """A curve past the sheet or discriminant-degree limit is rejected before
    any work is done on it."""
    assert main(["wkb-trace", "--curve", curve, "--theta", "0.1",
                 "--mass", "3", "--radius", "3"]) == 2
    assert "curve too large" in capsys.readouterr().err


@pytest.mark.parametrize("curve", ["(w+z+1)^32", "(w+z+1)^80"])
def test_curve_expansion_bound_exits_2(curve, capsys):
    """A power the curve reader would expand past its term bound exits 2
    before the expansion is done."""
    start = time.process_time()
    assert main(["wkb-trace", "--curve", curve, "--theta", "0.1",
                 "--mass", "3", "--radius", "3"]) == 2
    assert time.process_time() - start < 0.5
    assert "more than 512 terms" in capsys.readouterr().err


def test_wkb_trace_curve_text_is_not_executed(tmp_path, capsys):
    """Neither --curve nor the config key runs the text as Python."""
    target = tmp_path / "x"
    payload = "w^2 - z + 0*len(open(%r,'w').write('x') and 'a')" % str(target)
    config = tmp_path / "run.cfg"
    config.write_text("curve = %s\n" % payload)
    for argv in (["--curve", payload], ["--curve", "w^2 - z", "--config", str(config)]):
        assert main(["wkb-trace", "--theta", "0", "--mass", "10", "--radius", "5"]
                    + argv) == 2
        assert "error" in capsys.readouterr().err
        assert not target.exists()


@pytest.mark.parametrize("sub", ["augmentation", "bps"])
def test_non_reduced_bottom_exits_nonzero(sub, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=2\ntop: 1 1 1\nmoves: t1\n"))
    assert main([sub, "-"]) == 2
    assert "n=2; 1 1 is not a reduced word" in capsys.readouterr().err


def test_propagation_error_exits_2(monkeypatch, capsys):
    """A forest the weave cannot grow is a named error with exit 2, not a
    traceback with exit 1 (the code nonabelianize uses for NOT IDENTITY)."""
    monkeypatch.setattr("sys.stdin", io.StringIO("n=3\ntop: 1 1 1 2 2\nmoves: t2 t1 t2\n"))
    assert main(["augmentation", "-"]) == 2
    assert capsys.readouterr().err.startswith("error [augmentation]: rightward flowline ")


def test_creation_step_guard_exits_2(monkeypatch, capsys):
    """A round that runs past the forest's creation-step guard is a named
    error with exit 2."""
    monkeypatch.setattr("specnet.forest.MAX_CREATION_STEPS", 0)
    assert main(["augmentation", "three_strand"]) == 2
    assert capsys.readouterr().err == \
        "error [augmentation]: round 1 exceeded 0 creation steps (gapped guard)\n"


def test_missing_input_exits_nonzero(capsys):
    assert main(["augmentation", "no_such_weave_anywhere"]) == 2


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_nonabelianize_reports_identity(weave_file, capsys):
    assert main(["nonabelianize", weave_file, "--systems", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("identity") == 2  # two branch points, no joints


def test_bps_json(weave_file, capsys):
    assert main(["bps", weave_file, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    assert all(set(r) == {"wall", "chord", "class", "index"} for r in rows)
