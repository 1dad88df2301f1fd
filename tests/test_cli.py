import argparse
import hashlib
import io
import json
import os
import re
import time
from pathlib import Path

import pytest

from specnet import cli
from specnet.cli import main
from specnet.forest import ForestBuilder
from specnet.laurent import MAX_BITS
from specnet.network import network_to_json
from specnet.nonabel import LocalSystemRank1
from specnet.soliton_bps import HomologyEngine
from specnet.weave import MAX_LETTERS, MAX_STRANDS
from specnet.wkb import SpectralCurve, build_wkb_network

from conftest import EXAMPLES, pairing_built


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


@pytest.mark.parametrize("command", ["augmentation", "bps", "nonabelianize"])
def test_weave_commands_build_no_pairing(command, monkeypatch, capsys):
    """On every packaged fixture, each homology engine a weave command
    builds reads every class off walks: none builds its test curves, its
    pairing matrix or that matrix's factors."""
    engines, init = [], HomologyEngine.__init__
    monkeypatch.setattr(HomologyEngine, "__init__",
                        lambda self, builder: engines.append(self) or init(self, builder))
    for name in EXAMPLES:
        assert main([command, name]) == 0
    capsys.readouterr()
    assert len(engines) == len(EXAMPLES)
    assert not any(map(pairing_built, engines))


def test_table_commands_build_no_loop(tmp_path, monkeypatch, capsys):
    """On every packaged fixture, ``augmentation``, ``bps`` and ``compare``
    (against the fixture's own augmentation table) build no monodromy
    loop: the homology engine reads its letters off the cuts, so none of
    them calls ``HomologyEngine.clearance``."""
    centers = []
    monkeypatch.setattr(HomologyEngine, "clearance", lambda self, center: centers.append(center))
    for name in EXAMPLES:
        table = tmp_path / (name + ".json")
        assert main(["augmentation", name, "--format", "json"]) == 0
        table.write_text(capsys.readouterr().out)
        assert main(["bps", name]) == 0
        assert main(["compare", name, str(table)]) == 0
        assert capsys.readouterr().out.endswith(" chords\n")
    assert centers == []


def test_packaged_fixture_names_resolve(capsys):
    """A fixture name resolves with or without its suffix, for a weave
    input and for either side of compare."""
    assert main(["augmentation", "mutation_a"]) == 0
    assert main(["augmentation", "mutation_a.weave"]) == 0
    assert main(["compare", "mutation_a.weave", "mutation_a.json"]) == 0
    assert capsys.readouterr().out.endswith("tables agree on 6 chords\n")
    assert main(["compare", "mutation_a", "no_such_table.json"]) == 2
    assert capsys.readouterr().err == \
        "error [compare]: no json file or fixture named 'no_such_table.json'\n"


def test_directory_does_not_shadow_a_fixture(tmp_path, monkeypatch, capsys):
    """A directory in the working directory named like a fixture is passed
    over for the fixture file, for a weave input and for either side of
    compare; a directory alone is still opened, and its error names it."""
    monkeypatch.chdir(tmp_path)
    for name in ("mutation_a", "mutation_a.json", "five_crossing"):
        (tmp_path / name).mkdir()
    assert main(["bps", "five_crossing"]) == 0
    assert capsys.readouterr().out == FIVE_CROSSING_BPS_TABLE
    assert main(["compare", "mutation_a", "mutation_a.json"]) == 0
    assert capsys.readouterr().out == "tables agree on 6 chords\n"
    assert main(["compare", "mutation_a.json", "mutation_a"]) == 0
    assert capsys.readouterr().out == "tables agree on 6 chords\n"
    (tmp_path / "lone").mkdir()
    assert main(["augmentation", "lone"]) == 2
    assert capsys.readouterr().err == "error [augmentation]: [Errno 21] Is a directory: 'lone'\n"


def test_fixture_root_env_var(tmp_path, monkeypatch, capsys):
    (tmp_path / "custom.weave").write_text(EXAMPLES["mutation_b"])
    monkeypatch.setenv("SPECNET_FIXTURES", str(tmp_path))
    assert main(["augmentation", "custom"]) == 0
    assert "z_2 = s_2" in capsys.readouterr().out


def test_weave_network_json_round_trips(weave_file, capsys):
    assert main(["weave-network", weave_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["walls"]) == 6


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


@pytest.mark.parametrize("doc", [[1, 2], {"z_1": 3}])
def test_compare_rejects_table_not_an_object_of_strings(doc, tmp_path, capsys):
    (tmp_path / "odd.json").write_text(json.dumps(doc))
    assert main(["compare", str(tmp_path / "odd.json"), "mutation_a.json"]) == 2
    assert capsys.readouterr().err.startswith("error [compare]:")


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
def test_wkb_trace_rejects_infinite_mass_and_radius(key, tmp_path, monkeypatch, capsys):
    """build_wkb_network checks its bounds before it traces anything, from a
    flag or a config key alike."""
    import specnet.wkb

    def never(*args, **kwargs):
        raise AssertionError("traced a network from a non-finite bound")

    monkeypatch.setattr(specnet.wkb, "branch_points", never)
    argv = ["wkb-trace", "--curve", "w^2 - z", "--theta", "0"]
    config = tmp_path / "run.cfg"
    config.write_text("%s = inf\n" % key)
    for extra in (["--" + key, "inf"], ["--" + key, "-1"], ["--config", str(config)]):
        assert main(argv + extra) == 2
        assert capsys.readouterr().err == ("error [wkb-trace]: mass cutoff and "
                                           "radius must be positive and finite\n")
    with pytest.raises(ValueError, match="positive and finite"):
        build_wkb_network(SpectralCurve("w^2 - z"), 0.3, float("inf"), 8.0)


def test_wkb_trace_calls_the_module_builder_at_call_time(monkeypatch, capsys):
    """``wkb-trace`` looks up ``specnet.wkb.build_wkb_network`` when it
    runs, so a wrapper patched onto the module, as the benchmark's
    ``wkb_trace`` check patches one to keep the network it built, sees
    every call."""
    import specnet.wkb

    calls, build = [], specnet.wkb.build_wkb_network

    def recording(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(specnet.wkb, "build_wkb_network", recording)
    assert main(["wkb-trace", "--curve", "w^2 - z", "--theta", "0", "--mass", "10",
                 "--radius", "5"]) == 0
    assert [args[1:] for args in calls] == [(0.0, 10.0, 5.0)]


def test_wkb_trace_json(capsys):
    assert main(["wkb-trace", "--curve", "w^2 - z", "--theta", "0",
                 "--mass", "10", "--radius", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["walls"]) == 3
    assert doc["theta"] == 0.0


@pytest.mark.parametrize("curve, theta, mass, radius", [
    ("w^2 - z", 0.0, 10.0, 5.0),
    ("w^3 - 3*w + x", 0.3, 12.0, 8.0),
    ("w^3 - 3*w + x", 1.7, 12.0, 8.0),  # two 51-point walls
], ids=["airy-0", "cubic-0.3", "cubic-1.7"])
def test_wkb_trace_json_equals_two_pass_encoding(curve, theta, mass, radius, capsys):
    """The JSON export, encoded once, has the bytes of the encoding it
    replaced: network_to_json decoded, theta and charges added, encoded.
    The charges are every tenth and the last, once: the two 51-point walls
    of the cubic at 1.7 no longer repeat their last charge."""
    assert main(["wkb-trace", "--curve", curve, "--theta", repr(theta),
                 "--mass", repr(mass), "--radius", repr(radius)]) == 0
    net = build_wkb_network(SpectralCurve(curve), theta, mass, radius)
    doc = json.loads(network_to_json(net))
    doc["theta"] = theta
    doc["charges"] = {
        str(w.id): [[Z.real, Z.imag] for Z in w.charges[:-1:10] + [w.charges[-1]]]
        for w in net.traced}
    assert all(len(doc["charges"][str(w.id)]) == 1 + (len(w.charges) + 8) // 10
               for w in net.traced)
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# sha256 of the wkb-trace stdout, JSON and SVG, per (curve, theta, mass, radius);
# the JSON digests hold the root finder's last bits (see CHANGES.md)
WKB_TRACE_DIGESTS = {
    ("w^2 - z", 0.0, 10.0, 5.0): (
        "bf1e09a8eb01da443cb65657e0500fbcc98f62a4cf638333289c97fb7682ad21",
        "d23dc796036fc15955a81d81c486458392bfb81b9ca00c8db649dc82cf96e341"),
    ("w^3 - 3*w + x", 0.3, 12.0, 8.0): (
        "92f64dddb7b003ae9c6977fa6a121d7be16aa7e044ce40563383b39c740fad76",
        "b1643131a4c399d73ee1f54945e27b80aec4f7641b5b107521a3f9f5888c7832"),
    ("w^3 - 3*w + x", 1.7, 12.0, 8.0): (
        "93cf4a190350c821491cc49fdce5378d9304e26eea4a50ffb47a09d12e669ee1",
        "cb68ecc7de7857f571725d30f03ef0fbe7c5524032aea2572bffc88145ee9dfc"),
    ("w^3 - 3*w + x", -2.1, 12.0, 8.0): (
        "a42d60cb9d71fcd05ac3087aea54d3fb73cfc777c650c43fd1861d1b4d8eb4ca",
        "327b4249989f9642ec571a025f2ebadfb42520335ded096c0a0f0faa122a812e"),
}


@pytest.mark.parametrize("case", sorted(WKB_TRACE_DIGESTS), ids=lambda c: "%s@%r" % (c[0], c[1]))
def test_wkb_trace_output_equals_recorded_digest(case, capsys):
    """The wkb-trace exports stay byte for byte what they were when the
    digests were recorded."""
    curve, theta, mass, radius = case
    digests = []
    for fmt in ("json", "svg"):
        assert main(["wkb-trace", "--curve", curve, "--theta", repr(theta), "--mass", repr(mass),
                     "--radius", repr(radius), "--format", fmt]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == WKB_TRACE_DIGESTS[case]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_wkb_trace_rejects_non_finite_theta(value, tmp_path, monkeypatch, capsys):
    """A non-finite phase is refused before anything is traced, from a flag
    or a config key alike, in one line."""
    import specnet.wkb

    def never(*args, **kwargs):
        raise AssertionError("traced a network at a non-finite phase")

    monkeypatch.setattr(specnet.wkb, "branch_points", never)
    config = tmp_path / "run.cfg"
    config.write_text("theta = %s\n" % value)
    argv = ["wkb-trace", "--curve", "w^2 - z"]
    for extra in (["--theta=" + value], ["--theta", value], ["--config", str(config)]):
        assert main(argv + extra) == 2
        assert capsys.readouterr() == ("", "error [wkb-trace]: theta must be finite\n")


def test_wkb_trace_reads_negative_values_after_a_space(tmp_path, capsys):
    """The token after --theta, --mass or --radius (or a unique prefix) is
    its value even where argparse would take it for an option, as in
    -1e-3 or -inf: the same as the --flag=value form and a config key."""
    argv = ["wkb-trace", "--curve", "w^2 - z", "--mass", "4", "--radius", "2"]
    config = tmp_path / "run.cfg"
    config.write_text("theta = -1e-3\n")
    outputs = []
    for extra in (["--theta", "-1e-3"], ["--the", "-1e-3"], ["--theta=-1e-3"],
                  ["--config", str(config)]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert json.loads(outputs[0])["theta"] == -1e-3
    assert outputs == outputs[:1] * 4
    for extra in (["--mass", "-1e-3"], ["--radius", "-inf"]):
        assert main(["wkb-trace", "--curve", "w^2 - z"] + extra) == 2
        assert capsys.readouterr() == ("", "error [wkb-trace]: mass cutoff and radius "
                                           "must be positive and finite\n")


def test_config_file_overrides_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# raise the phase\ntheta = 0.25\nradius = 4\n")
    assert main(["wkb-trace", "--curve", "w^2 - z", "--theta", "0",
                 "--mass", "10", "--radius", "5",
                 "--config", str(config)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == 0.25


def _usage_error(argv, capsys):
    """stderr of a call that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


def _config_error(argv, text, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    return _usage_error(argv + ["--config", str(config)], capsys)


def test_compare_never_reads_a_config_file(tmp_path, monkeypatch, capsys):
    """compare takes no config file, so it never opens one: its usage
    error names --config and its path alone, not the file's keys too.
    wkb-trace reads the same file."""
    config = tmp_path / "good.cfg"
    config.write_text("theta = 0.25\nradius = 4\n")
    read, config_flags = [], cli._config_flags
    monkeypatch.setattr(cli, "_config_flags", lambda path: read.append(path) or config_flags(path))
    err = _usage_error(["compare", "five_crossing", "mutation_a.json", "--config", str(config)],
                       capsys)
    assert err.endswith("error: unrecognized arguments: --config %s\n" % config)
    assert read == []
    assert main(["wkb-trace", "--curve", "w^2 - z", "--config", str(config)]) == 0
    assert read == [str(config)]


def test_parser_tree_is_built_once(monkeypatch, capsys):
    """``main`` builds its parser, specnet's and one per subcommand, on
    the first call of the process and reuses it on every later call."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    for argv in (["augmentation", "mutation_a"], ["compare", "mutation_a", "mutation_a.json"],
                 ["wkb-trace", "--curve", "w^2 - 1"], ["augmentation", "mutation_b"]):
        assert main(argv) == 0
    assert built[0] == "specnet" and len(built) == 7


def test_config_call_leaves_the_next_call_alone(tmp_path, capsys):
    argv = ["wkb-trace", "--curve", "w^2 - z", "--theta", "0", "--mass", "10", "--radius", "5"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    config = tmp_path / "run.cfg"
    config.write_text("theta = 0.25\nradius = 4\n")
    assert main(argv + ["--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["theta"] == 0.25
    assert main(argv) == 0
    assert capsys.readouterr() == plain


def test_usage_error_leaves_the_next_call_alone(capsys):
    assert main(["augmentation", "mutation_a"]) == 0
    valid = capsys.readouterr()
    assert "error: argument --format: invalid choice: 'svg'" in _usage_error(
        ["augmentation", "mutation_a", "--format", "svg"], capsys)
    assert "error: the following arguments are required: --curve" in _usage_error(
        ["wkb-trace"], capsys)
    assert main(["augmentation", "mutation_a"]) == 0
    assert capsys.readouterr() == valid


def test_help_is_the_same_on_the_first_and_a_later_call(capsys):
    cli._parser.cache_clear()
    for argv in (["-h"], ["wkb-trace", "-h"]):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        assert texts[0].out.startswith("usage: specnet") and texts[0].err == ""


def test_unknown_config_key_fails(tmp_path, capsys):
    err = _config_error(["augmentation", "mutation_a"], "bogus = 1\n", tmp_path, capsys)
    assert "error: unrecognized arguments: --bogus=1\n" in err


def test_removed_tolerance_key_fails(tmp_path, capsys):
    err = _config_error(["augmentation", "mutation_a"], "tolerance = 1e-9\n",
                        tmp_path, capsys)
    assert "error: unrecognized arguments: --tolerance=1e-9\n" in err


def test_removed_max_rounds_flag_and_key_fail(tmp_path, capsys):
    argv = ["wkb-trace", "--curve", "w^2 - z"]
    assert "unrecognized arguments: --max-rounds 5" in _usage_error(
        argv + ["--max-rounds", "5"], capsys)
    err = _config_error(argv, "max_rounds = 20\n", tmp_path, capsys)
    assert "error: unrecognized arguments: --max-rounds=20\n" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert main(["augmentation", "mutation_a", "--config", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error [augmentation]: [Errno 2] No such file or "
                            "directory: %r\n" % missing)


@pytest.mark.parametrize("flag", ["input", "--out", "--config"])
def test_directory_path_exits_2(flag, tmp_path, capsys):
    """An OS error on an input or output path is an input error, not a
    traceback."""
    argv = ["augmentation", "mutation_a"]
    if flag == "input":
        argv[1] = str(tmp_path)
    else:
        argv += [flag, str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [augmentation]: [Errno 21] Is a directory")


def test_config_keys_take_unique_prefixes_like_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("the = 0.25\nrad = 4\n")
    assert main(["wkb-trace", "--curve", "w^2 - z", "--mass", "10",
                 "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["theta"] == 0.25
    err = _config_error(["wkb-trace"], "c = 1\n", tmp_path, capsys)
    assert "error: ambiguous option: --c=1 could match --curve, --config\n" in err


def test_config_file_naming_another_fails(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("config = other.cfg\n")
    assert main(["augmentation", "mutation_a", "--config", str(config)]) == 2
    assert capsys.readouterr().err == ("error [augmentation]: config file %s "
                                       "names another config file\n" % config)


def test_config_line_without_equals_fails(tmp_path, capsys):
    """A bare key would be read as an empty value: ``out`` alone would
    drop --out and print the table instead of writing the file."""
    config = tmp_path / "run.cfg"
    config.write_text("# comment\n\nformat = json\nout\n")
    out = tmp_path / "r.json"
    assert main(["augmentation", "mutation_a", "--out", str(out),
                 "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", "error [augmentation]: config file %s line 4 "
                                       "is not key = value: 'out'\n" % config)
    assert not out.exists()


def _readme_flag_table():
    """{subcommand: set of --flags} from README's flag table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text.split("Each subcommand takes only the flags it reads:\n\n", 1)[1]
    rows = {}
    for line in after.split("\n\n", 1)[0].splitlines()[2:]:
        _, name, flags, _ = re.split(r"(?<!\\)\|", line)
        rows[name.strip(" `")] = set(re.findall(r"--[a-z][a-z-]*", flags))
    return rows


def test_readme_flag_table_matches_parser(capsys):
    rows = _readme_flag_table()
    assert set(rows) == {"weave-network", "augmentation", "nonabelianize", "bps",
                         "wkb-trace", "compare"}
    for name, flags in rows.items():
        with pytest.raises(SystemExit):
            main([name, "--help"])
        parsed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == parsed - {"--help"}, name


def test_readme_library_block_runs():
    """The python block under README's ``## Library`` runs, so the entry
    points it documents cannot drift from the code."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", [
    ["augmentation", "mutation_a", "--format", "svg"],
    ["bps", "mutation_a", "--format", "svg"],
    ["bps", "mutation_a", "--seed", "1"],
    ["weave-network", "mutation_a", "--seed", "1"],
    ["wkb-trace", "--curve", "w^2 - z", "--seed", "1"],
    ["nonabelianize", "mutation_a", "--seed", "1"],
    ["nonabelianize", "mutation_a", "--format", "json"],
    ["compare", "a.json", "b.json", "--config", "run.cfg"],
], ids=["augmentation-svg", "bps-svg", "bps-seed", "weave-network-seed",
        "wkb-trace-seed", "nonabelianize-seed", "nonabelianize-format", "compare-config"])
def test_flags_a_subcommand_never_reads_are_rejected(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)


def test_other_subcommands_config_keys_fail(tmp_path, capsys):
    """A key is a flag of the subcommand; the positional input is not one."""
    err = _config_error(["augmentation", "mutation_a"], "theta = 0.25\n", tmp_path, capsys)
    assert "error: unrecognized arguments: --theta=0.25\n" in err
    err = _config_error(["wkb-trace", "--curve", "w^2 - z"], "input = w^2 - z\n",
                        tmp_path, capsys)
    assert "error: unrecognized arguments: --input=w^2 - z\n" in err
    err = _config_error(["augmentation", "mutation_a"], "input = mutation_b\n",
                        tmp_path, capsys)
    assert "error: unrecognized arguments: --input=mutation_b\n" in err


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    err = _config_error(["augmentation", "mutation_a"], "format = svg\n", tmp_path, capsys)
    assert "error: argument --format: invalid choice: 'svg'" in err
    err = _config_error(["nonabelianize", "mutation_a"], "systems = many\n",
                        tmp_path, capsys)
    assert "error: argument --systems: invalid int value: 'many'\n" in err


def test_config_file_sets_the_curve(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("curve = w^2 - z\nmass = 10\nradius = 5\n")
    assert main(["wkb-trace", "--curve", "w^3 - 3*w + x", "--theta", "0",
                 "--config", str(config)]) == 0
    assert len(json.loads(capsys.readouterr().out)["walls"]) == 3


def test_config_file_alone_gives_the_curve(tmp_path, capsys):
    """A config file can give the required --curve with no flag on the
    command line, and prints what the flags print; a curve that neither
    gives is still a usage error."""
    flags = ["--curve", "w^2 - z", "--theta", "0", "--mass", "10", "--radius", "5"]
    assert main(["wkb-trace"] + flags) == 0
    by_flags = capsys.readouterr()
    config = tmp_path / "run.cfg"
    config.write_text("curve = w^2 - z\ntheta = 0\nmass = 10\nradius = 5\n")
    assert main(["wkb-trace", "--config", str(config)]) == 0
    assert capsys.readouterr() == by_flags
    config.write_text("theta = 0\n")
    assert "error: the following arguments are required: --curve" in _usage_error(
        ["wkb-trace", "--config", str(config)], capsys)


def test_invalid_curve_exits_nonzero(capsys):
    assert main(["wkb-trace", "--curve", "w - z", "--theta", "0",
                 "--mass", "10", "--radius", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_non_simple_branch_point_exits_2(capsys):
    """Three sheets meeting at z = 0 is no simple branch point."""
    assert main(["wkb-trace", "--curve", "w^3 - z"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [wkb-trace]: non-simple branch point at z=0j\n"


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


@pytest.mark.parametrize("curve, what", [("w^2 - 10^400*z", "P"),
                                         ("w^3 - 3*w + 10^300*z", "its discriminant"),
                                         ("w^2 - 1e-400*z", "P")])
def test_curve_a_float_cannot_hold_exits_2(curve, what, capsys):
    """A nonzero coefficient of P or of its discriminant that overflows a
    float or rounds to zero is a curve error, not a traceback."""
    assert main(["wkb-trace", "--curve", curve]) == 2
    assert capsys.readouterr().err == ("error [wkb-trace]: curve %r: a coefficient of %s "
                                       "is out of float range\n" % (curve, what))


@pytest.mark.parametrize("number, shown", [("3^(10^7)", "3 ** 10 ** 7"),
                                           ("3^(10^8)", "3 ** 10 ** 8"),
                                           ("1e10000000", "1e10000000")])
def test_huge_coefficient_exits_2_at_once(number, shown, tmp_path, capsys):
    """A decimal or power past the reader's bit bound exits 2 before it is
    built, in a curve and in a compare table alike."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"z_1": number}))
    refusal = "reading %s may give a coefficient of more than %d bits\n" % (shown, MAX_BITS)
    curve = "w^2 - %s*z" % number
    start = time.process_time()
    assert main(["wkb-trace", "--curve", curve]) == 2
    assert main(["compare", str(table), str(table)]) == 2
    assert time.process_time() - start < 0.1
    assert capsys.readouterr().err == ("error [wkb-trace]: cannot read curve %r: %s"
                                       "error [compare]: %s" % (curve, refusal, refusal))


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


@pytest.mark.parametrize("sub", ["augmentation", "bps", "nonabelianize"])
def test_empty_top_exits_2_with_named_error(sub, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=2\ntop:\n"))
    assert main([sub, "-"]) == 2
    assert capsys.readouterr().err == \
        "error [%s]: weave has no weave lines: its top word is empty\n" % sub


def test_malformed_header_exits_2_with_named_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=2\ntop: 1 x\n"))
    assert main(["bps", "-"]) == 2
    assert capsys.readouterr().err == "error [bps]: malformed top letter 'x'\n"


def test_unrecognized_line_exits_2_with_named_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=2\ntop: 1 1\nbogus line\n"))
    assert main(["bps", "-"]) == 2
    assert capsys.readouterr().err == "error [bps]: unrecognized line 'bogus line'\n"


def test_propagation_error_exits_2(monkeypatch, capsys):
    """A forest the weave cannot grow is a named error with exit 2, not a
    traceback with exit 1 (the code nonabelianize uses for NOT IDENTITY)."""
    monkeypatch.setattr("sys.stdin", io.StringIO("n=3\ntop: 1 1 1 2 2\nmoves: t2 t1 t2\n"))
    assert main(["augmentation", "-"]) == 2
    assert capsys.readouterr().err.startswith("error [augmentation]: rightward flowline ")


@pytest.mark.parametrize("text", [
    "n=3\ntop: 1 1 2 1 1\nmoves: t1 t3 h1 h1",  # a joint on a vertical parent leg
    "n=3\ntop: 1 2 2 2 1 2\nmoves: h4 t2 h2 t1 t3",  # a gap before a turn, and the lift
    "n=3\ntop: 1 2 1 2 1\nmoves: h2 t1 h1 h2 t1 h1 h1 h1 h1",  # a gap before a turn only
], ids=["lift", "gap-and-lift", "gap"])
def test_local_offset_rules_build(text, monkeypatch, capsys):
    """Weaves that meet the forest's lift or gap rule build, and every
    monodromy loop is the identity."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
    assert main(["nonabelianize", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith("monodromy: identity") for line in lines)


def test_corner_hit_exits_2_after_one_build(monkeypatch, capsys):
    """A coincidence the local rules do not fix is named after one build."""
    builds = []
    build = ForestBuilder.build
    monkeypatch.setattr(ForestBuilder, "build", lambda self: builds.append(1) or build(self))
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "n=3\ntop: 1 2 1 1 1 2 1\nmoves: t4 t3 h1 h1 h2 t1 t3 h1\n"))
    assert main(["nonabelianize", "-"]) == 2
    assert capsys.readouterr().err.startswith("error [nonabelianize]: polyline corner hit at (")
    assert builds == [1]


def test_creation_step_guard_exits_2(monkeypatch, capsys):
    """A round that runs past the forest's creation-step guard is a named
    error with exit 2."""
    monkeypatch.setattr("specnet.forest.MAX_CREATION_STEPS", 0)
    assert main(["augmentation", "three_strand"]) == 2
    assert capsys.readouterr().err == \
        "error [augmentation]: round 1 exceeded 0 creation steps (gapped guard)\n"


def test_forest_strand_bound_exits_2(builders, monkeypatch, capsys):
    """A forest that grows past MAX_FOREST_STRANDS is a named error with
    exit 2, raised as the next strand would be grown."""
    strands = len(builders["three_strand"].strands)
    monkeypatch.setattr("specnet.forest.MAX_FOREST_STRANDS", strands - 1)
    for sub in ("augmentation", "nonabelianize"):
        assert main([sub, "three_strand"]) == 2
        assert capsys.readouterr().err == \
            "error [%s]: forest grew past %d strands\n" % (sub, strands - 1)
    monkeypatch.setattr("specnet.forest.MAX_FOREST_STRANDS", strands)
    assert main(["augmentation", "three_strand"]) == 0


def test_missing_input_exits_nonzero(capsys):
    assert main(["augmentation", "no_such_weave_anywhere"]) == 2


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_nonabelianize_reports_identity(weave_file, capsys):
    assert main(["nonabelianize", weave_file, "--systems", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("identity") == 2  # two branch points, no joints


# the monodromy loops each fixture's report names, (branch vertices, joint
# children), all reported as the identity
MONODROMY_LOOPS = {
    "mutation_a": ((0, 1), ()),
    "mutation_b": ((0, 1), ()),
    "sigma1_6": ((0, 1, 2, 3, 4), ()),
    "five_crossing": ((1, 3), (6, 7)),
    "three_strand": ((1, 3, 4, 6), (6, 10, 11, 12, 13, 17, 18, 19)),
}


@pytest.mark.parametrize("fixture", sorted(MONODROMY_LOOPS))
def test_nonabelianize_draws_no_local_system(fixture, monkeypatch, capsys):
    """The report is decided by the exact check alone: no local system is
    drawn, and the ignored --systems still parses."""
    def drawn(*args):
        raise AssertionError("a local system was drawn")

    monkeypatch.setattr(LocalSystemRank1, "random", drawn)
    branches, joints = MONODROMY_LOOPS[fixture]
    expected = ["branch %-3s monodromy: identity" % v for v in branches]
    expected += ["joint %-3s monodromy: identity" % j for j in joints]
    assert main(["nonabelianize", fixture, "--systems", "20"]) == 0
    assert capsys.readouterr() == ("\n".join(expected) + "\n", "")


def test_weave_with_too_many_strands_exits_2_at_once(tmp_path, capsys):
    path = tmp_path / "wide.weave"
    path.write_text("n=100000\ntop: 1 1\nmoves: t1\n")
    start = time.process_time()
    for sub in ("augmentation", "nonabelianize"):
        assert main([sub, str(path)]) == 2
        assert capsys.readouterr().err == \
            "error [%s]: weave has 100000 strands (limit: %d)\n" % (sub, MAX_STRANDS)
    assert time.process_time() - start < 0.5
    # the staircase one letter past MAX_LETTERS, whose forest would take seconds
    letters = MAX_LETTERS + 1
    path.write_text("n=2\ntop: %s\nmoves: %s\n" % (" ".join(["1"] * letters),
                                                   " ".join(["t1"] * (letters - 1))))
    start = time.process_time()
    for sub in ("augmentation", "nonabelianize"):
        assert main([sub, str(path)]) == 2
        assert capsys.readouterr().err == \
            "error [%s]: weave top has %d letters (limit: %d)\n" % (sub, letters, MAX_LETTERS)
    assert time.process_time() - start < 0.1


def test_bps_json(weave_file, capsys):
    assert main(["bps", weave_file, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    assert all(set(r) == {"wall", "chord", "class", "index"} for r in rows)


FIVE_CROSSING_NETWORK_TABLE = """\
vertices: 4  walls: 12
wall 0 label (1, 2) source 0 target 2
wall 1 label (1, 2) source 2 target end:z_3
wall 2 label (1, 2) source 0 target 3
wall 3 label (2, 3) source 3 target end:z_1
wall 4 label (1, 2) source 0 target end:w_1
wall 5 label (1, 2) source 1 target 2
wall 6 label (2, 3) source 2 target end:z_5
wall 7 label (1, 2) source 1 target end:z_2
wall 8 label (1, 2) source 1 target 3
wall 9 label (1, 2) source 3 target end:w_2
wall 10 label (1, 3) source 2 target end:z_4
wall 11 label (1, 3) source 3 target end:w_3
"""

FIVE_CROSSING_BPS_TABLE = """\
wall 0   chord z_3  mu -1  class s_1^-1*s_2
wall 1   chord z_1  mu +1  class s_1*s_2^-1
wall 2   chord w_1  mu -1  class s_1^-1*s_2
wall 3   chord z_5  mu -1  class s_2^-1
wall 4   chord z_2  mu +1  class s_2
wall 5   chord w_2  mu -1  class s_2^-1
wall 6   chord z_4  mu -1  class s_1^-1
wall 7   chord w_3  mu +1  class s_1*s_2^-1
"""


@pytest.mark.parametrize("sub, table", [
    ("weave-network", FIVE_CROSSING_NETWORK_TABLE),
    ("bps", FIVE_CROSSING_BPS_TABLE),
], ids=["weave-network", "bps"])
def test_default_table_output_five_crossing(sub, table, capsys):
    assert main([sub, "five_crossing"]) == 0
    assert capsys.readouterr().out == table


def test_compare_reads_only_the_json_side(monkeypatch, capsys):
    """A weave side's augmentation values stay polynomials, re-keyed onto
    the tables' generators: ``parse_laurent`` reads only the JSON side's
    values, one call per compared value up to the first mismatch, and none
    when both sides are weaves; the messages are the ones the tables'
    text gives."""
    calls = []
    original = cli.parse_laurent
    monkeypatch.setattr(cli, "parse_laurent",
                        lambda text, gens: calls.append(text) or original(text, gens))
    table = json.loads((Path(cli.fixture_root()) / "mutation_a.json").read_text())
    assert main(["compare", "mutation_a", "mutation_a.json"]) == 0
    assert calls == [table[name] for name in sorted(table)]
    calls.clear()
    assert main(["compare", "mutation_a.json", "mutation_a"]) == 0
    assert calls == [table[name] for name in sorted(table)]
    calls.clear()
    assert main(["compare", "mutation_a", "mutation_b"]) == 1
    assert main(["compare", "mutation_a", "mutation_a"]) == 0
    assert calls == []
    assert main(["compare", "mutation_a", "mutation_b.json"]) == 1
    assert calls == ["-s_1^-1*s_2^-1", "-s_1*s_2", "-s_1^-1"]
    mismatch = "mismatch at w_1: computed -s_1^-1 + s_1^-2*s_2^-1 expected -s_1^-1\n"
    assert capsys.readouterr().out == ("tables agree on 6 chords\n" * 2 + mismatch
                                       + "tables agree on 6 chords\n" + mismatch)


def test_compare_rekeys_a_weave_onto_the_tables_generators(tmp_path, capsys):
    """A weave side's values are re-keyed onto the generators both tables
    name, sorted as text: a JSON table that also names s_10, with exponent
    0, between s_1 and s_2, agrees with the weave either way round, and one
    equal to the weave's with s_1 set to 1, which names no s_1, mismatches
    at the first value with an s_1."""
    table = json.loads((Path(cli.fixture_root()) / "mutation_a.json").read_text())
    wide, flat = tmp_path / "wide.json", tmp_path / "flat.json"
    wide.write_text(json.dumps(dict(table, z_2=table["z_2"] + " + 0*s_10")))
    flat.write_text(json.dumps({"t_1": "-s_2^-1", "t_2": "-s_2", "w_1": "-1 + s_2^-1", "z_1": "1",
                                "z_2": "s_2 - 1", "z_3": "-s_2^-1"}))
    assert main(["compare", "mutation_a", str(wide)]) == 0
    assert main(["compare", str(wide), "mutation_a"]) == 0
    assert main(["compare", "mutation_a", str(flat)]) == 1
    assert capsys.readouterr().out == "tables agree on 6 chords\n" * 2 \
        + "mismatch at t_1: computed -s_1^-1*s_2^-1 expected -s_2^-1\n"


def test_compare_weave_against_table(capsys):
    """The computed side may be a weave: its augmentation table is built."""
    table = Path(__file__).resolve().parents[1] / "perfbench" / "tables" / "five_crossing.json"
    assert main(["compare", "five_crossing", str(table)]) == 0
    assert capsys.readouterr().out == "tables agree on 11 chords\n"


def test_svg_draws_one_filled_dot_per_joint(builders, capsys):
    assert main(["weave-network", "five_crossing", "--format", "svg"]) == 0
    dots = re.findall(r'<circle [^>]*fill="black"/>', capsys.readouterr().out)
    assert len(dots) == len(builders["five_crossing"].joints) == 2


def test_wkb_trace_of_a_curve_without_branch_points_draws_axes_only(capsys):
    """P(z, w) = w^2 - 1 has no branch point, so the network is empty and
    the SVG falls back to the bounds [-1, 1] x [-1, 1]: both axes cross the
    canvas at its center."""
    assert main(["wkb-trace", "--curve", "w^2 - 1", "--format", "svg"]) == 0
    assert capsys.readouterr().out == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">\n'
        '<rect width="640" height="480" fill="white"/>\n'
        '<line x1="0" y1="240.0000" x2="640" y2="240.0000" stroke="#cccccc" stroke-width="1"/>\n'
        '<line x1="320.0000" y1="0" x2="320.0000" y2="480" stroke="#cccccc" stroke-width="1"/>\n'
        '</svg>\n')
