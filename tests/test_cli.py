"""CLI surface: determinism, golden files, schemas, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from polybox import GF, cli, poly, residues
from polybox.cli import _HANDLERS, main
from polybox.grammar import parse_poly

GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = Path(__file__).parent.parent / "src" / "polybox" / "schemas"

GOLDEN_COMMANDS = {
    "exponent-scan-238cad316bdc": ["exponent-scan", "--q", "2", "--curve",
                                   "Y-X^2", "--n-range", "1..10"],
    "detlab-ord-db42f6791467": ["detlab", "ord", "--q", "2", "--omega", "3",
                                "--curve", "Y-X^2", "--n", "2", "--f", "T"],
    "ec-scan19-0b18766ebf50": ["ec", "scan19", "--q", "2", "--n", "1",
                               "--f-deg", "18", "--seed", "5"],
    "count-box-e903910d26cd": ["count-box", "--q", "2", "--curve", "Y-X^2",
                               "--n", "4"],
}


# one run of each command in cli._HANDLERS, the goldens' where there is one
COMMANDS = {
    "count-box": GOLDEN_COMMANDS["count-box-e903910d26cd"],
    "exponent-scan": GOLDEN_COMMANDS["exponent-scan-238cad316bdc"],
    "residue-stats": ["residue-stats", "--q", "2", "--curve", "Y-X^2",
                      "--n", "2", "--f", "T^2+T+1"],
    "detlab ord": GOLDEN_COMMANDS["detlab-ord-db42f6791467"],
    "detlab mean-identity": ["detlab", "mean-identity", "--q", "3",
                             "--curve", "Y-X^2", "--n", "1", "--f-deg", "1",
                             "--omega", "2"],
    "detlab interpolate": ["detlab", "interpolate", "--q", "3", "--curve",
                           "Y-X^2", "--n", "4", "--d", "2"],
    "detlab wcurve-max": ["detlab", "wcurve-max", "--q", "2", "--d", "1",
                          "--M", "1", "--curve", "Y-X^2", "--n", "2"],
    "ec nlambda": ["ec", "nlambda", "--q", "3", "--n", "1", "--f-deg", "5",
                   "--lambda", "T+2", "--base-x", "T^3"],
    "ec census": ["ec", "census", "--q", "2", "--n", "2", "--f-deg", "9",
                  "--seed", "3"],
    "ec scan19": GOLDEN_COMMANDS["ec-scan19-0b18766ebf50"],
    "ec pigeonhole": ["ec", "pigeonhole", "--q", "3", "--f", "T^3+2*T+1",
                      "--x-list", "T+1|T^2", "--tau-list", "2|2"],
    "ec extremal": ["ec", "extremal", "--q", "2", "--n", "6"],
}


def _canonical_json(path: Path) -> bytes:
    doc = json.loads(path.read_text())
    doc.pop("timestamp", None)
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _schema_for(stem: str) -> dict:
    name = stem.rsplit("-", 1)[0]
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


@pytest.mark.parametrize("stem", sorted(GOLDEN_COMMANDS))
def test_golden_files(tmp_path, stem):
    argv = GOLDEN_COMMANDS[stem] + ["--outdir", str(tmp_path)]
    assert main(argv) == 0
    got_json = tmp_path / f"{stem}.json"
    assert got_json.exists(), "manifest hash drifted from the golden file"
    assert _canonical_json(got_json) == (GOLDEN / f"{stem}.json").read_bytes()
    golden_csv = GOLDEN / f"{stem}.csv"
    if golden_csv.exists():
        assert (tmp_path / f"{stem}.csv").read_bytes() == \
            golden_csv.read_bytes()


@pytest.mark.parametrize("stem", sorted(GOLDEN_COMMANDS))
def test_json_validates_against_schema(tmp_path, stem):
    argv = GOLDEN_COMMANDS[stem] + ["--outdir", str(tmp_path)]
    assert main(argv) == 0
    doc = json.loads((tmp_path / f"{stem}.json").read_text())
    jsonschema.validate(doc, _schema_for(stem))


def test_replay_reproduces_bit_for_bit(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    argv = GOLDEN_COMMANDS["ec-scan19-0b18766ebf50"] + ["--outdir", str(first)]
    assert main(argv) == 0
    report = next(first.glob("*.json"))
    assert main(["replay", str(report), "--outdir", str(second)]) == 0
    assert _canonical_json(report) == \
        _canonical_json(second / report.name)
    assert (first / report.name.replace(".json", ".csv")).read_bytes() == \
        (second / report.name.replace(".json", ".csv")).read_bytes()


@pytest.mark.parametrize("command", sorted(_HANDLERS))
def test_every_command_replays_and_validates(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(COMMANDS[command] + ["--outdir", str(first)]) == 0
    report = next(first.glob("*.json"))
    assert main(["replay", str(report), "--outdir", str(second)]) == 0
    for path in first.iterdir():
        if path.suffix == ".json":
            assert _canonical_json(path) == _canonical_json(second / path.name)
        else:
            assert path.read_bytes() == (second / path.name).read_bytes()
    doc = json.loads(report.read_text())
    assert doc["manifest"]["command"] == command
    jsonschema.validate(doc, _schema_for(report.stem))


@pytest.mark.parametrize("command", sorted(
    c for c, argv in COMMANDS.items() if {"--f", "--f-deg"} & set(argv)))
def test_modulus_proved_once(tmp_path, monkeypatch, command):
    proved = []
    real = poly.is_irreducible

    def counting(g):
        proved.append(g)
        return real(g)

    for module in (cli, poly, residues):
        monkeypatch.setattr(module, "is_irreducible", counting)
    assert main(COMMANDS[command] + ["--outdir", str(tmp_path)]) == 0
    params = json.loads(next(tmp_path.glob("*.json")).read_text())[
        "manifest"]["params"]
    f = parse_poly(GF(params["q"]), params["f"])
    assert proved.count(f) == 1


@pytest.mark.parametrize("argv", [
    ["residue-stats", "--f", "T"],
    ["detlab", "mean-identity", "--f", "T", "--omega", "3"],
    ["detlab", "wcurve-max", "--omega", "3"],
])
def test_empty_box_exits_usage(tmp_path, capsys, argv):
    # y^2 + y has constant term 0 over GF(2), x^2 + x + 1 has 1: no points
    rc = main(argv + ["--q", "2", "--curve", "Y^2+Y+X^2+X+(1)", "--n", "1",
                      "--outdir", str(tmp_path)])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["message"].startswith("empty point set")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["ec", "scan19", "--q", "2", "--n", "0", "--f-deg", "0"],
     "degree must be >= 1"),
    (["detlab", "interpolate", "--q", "3", "--curve", "Y-X^2", "--n", "4",
      "--d", "-1"], "form degree d must be >= 0"),
])
def test_invalid_degree_exits_usage(tmp_path, capsys, argv, message):
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == {"type": "ValueError", "message": message,
                                "exit_code": 2}


@pytest.mark.parametrize("command", sorted(
    c for c, argv in COMMANDS.items() if {"--f", "--f-deg"} & set(argv)))
def test_f_and_f_deg_together_exit_usage(tmp_path, capsys, command):
    argv = list(COMMANDS[command])
    i = next(i for i, a in enumerate(argv) if a in ("--f", "--f-deg"))
    del argv[i:i + 2]    # the command's own modulus flag and its value
    rc = main(argv + ["--f", "T", "--f-deg", "3", "--outdir", str(tmp_path)])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == {
        "type": "PolyboxError", "exit_code": 2,
        "message": "give one of --f or --f-deg, not both"}
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


def test_golden_manifest_with_f_and_f_deg_replays(tmp_path):
    # an --f-deg run records the modulus it drew beside f_deg; replaying
    # that manifest is not the conflict above
    golden = GOLDEN / "ec-scan19-0b18766ebf50.json"
    params = json.loads(golden.read_text())["manifest"]["params"]
    assert {"f", "f_deg"} <= set(params)
    assert main(["replay", str(golden), "--outdir", str(tmp_path)]) == 0
    assert _canonical_json(tmp_path / golden.name) == golden.read_bytes()


def test_every_csv_has_header(tmp_path):
    for stem, argv in GOLDEN_COMMANDS.items():
        out = tmp_path / stem
        main(argv + ["--outdir", str(out)])
        for csv_file in out.glob("*.csv"):
            first_line = csv_file.read_text().splitlines()[0]
            assert first_line[0].isalpha()


def test_out_flag_selects_format(tmp_path):
    argv = GOLDEN_COMMANDS["count-box-e903910d26cd"]
    main(argv + ["--outdir", str(tmp_path / "a"), "--out", "csv"])
    assert not list((tmp_path / "a").glob("*.json"))
    assert list((tmp_path / "a").glob("*.csv"))
    main(argv + ["--outdir", str(tmp_path / "b"), "--out", "json"])
    assert list((tmp_path / "b").glob("*.json"))
    assert not list((tmp_path / "b").glob("*.csv"))


def test_exit_codes(tmp_path):
    out = ["--outdir", str(tmp_path)]
    assert main(["detlab", "ord", "--q", "2", "--omega", "3", "--curve",
                 "Y-X^2", "--n", "2", "--f", "T", "--budget", "5"] + out) == 3
    assert main(["count-box", "--q", "2", "--curve", "X^2+*Y", "--n", "1"]
                + out) == 2
    assert main(["ec", "scan19", "--q", "2", "--n", "2", "--f", "T^2+T+1"]
                + out) == 2
    assert main(["ec", "scan19", "--q", "2", "--n", "2", "--f", "T^2+T+1",
                 "--force"] + out) == 0
    assert main(["no-such-command"]) == 2
    assert main(["count-box", "--q", "2", "--curve", "Y-X^2", "--n", "1",
                 "--jobs", "2"] + out) == 2


def test_error_json_matches_schema(capsys):
    rc = main(["count-box", "--q", "2", "--curve", "X^2+*Y", "--n", "1",
               "--outdir", "/tmp"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    schema = json.loads((SCHEMAS / "error.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert "offset 4" in payload["error"]["message"]


def test_subprocess_entry_and_usage_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "polybox.cli", "--definitely-not-a-flag"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYBOX_SEED", "5")
    out1 = tmp_path / "env"
    assert main(["ec", "scan19", "--q", "2", "--n", "1", "--f-deg", "18",
                 "--outdir", str(out1)]) == 0
    # identical to passing --seed 5 explicitly: same manifest hash
    assert (out1 / "ec-scan19-0b18766ebf50.json").exists()


def test_extension_field_flags(tmp_path):
    rc = main(["count-box", "--q", "2", "--ext-k", "2", "--curve", "Y-X^2",
               "--n", "1", "--outdir", str(tmp_path)])
    assert rc == 0
    doc = json.loads(next(tmp_path.glob("count-box-*.json")).read_text())
    assert doc["manifest"]["field"] == {"p": 2, "k": 2, "q": 4,
                                        "modulus": [1, 1, 1]}
    assert doc["report"]["count"] == 4  # x of degree <= 0 over F_4


def test_oversized_extension_field_exits_usage(tmp_path, capsys):
    rc = main(["count-box", "--q", "2", "--ext-k", "17", "--curve", "Y-X^2",
               "--n", "0", "--outdir", str(tmp_path)])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    schema = json.loads((SCHEMAS / "error.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["error"]["type"] == "ValueError"
    assert "q=131072" in payload["error"]["message"]
    assert not list(tmp_path.iterdir())


def test_nlambda_and_census_commands(tmp_path):
    out = ["--outdir", str(tmp_path)]
    assert main(["ec", "nlambda", "--q", "2", "--n", "0", "--f", "T",
                 "--lambda", "1"] + out) == 0
    doc = json.loads(next(tmp_path.glob("ec-nlambda-*.json")).read_text())
    assert doc["report"]["count"] == 2
    assert main(["ec", "census", "--q", "2", "--n", "0", "--f", "T",
                 "--method", "quad"] + out) == 0
    doc = json.loads(next(tmp_path.glob("ec-census-*.json")).read_text())
    assert doc["report"]["count"] == 10
    assert main(["ec", "extremal", "--q", "2", "--n", "6"] + out) == 0
    doc = json.loads(next(tmp_path.glob("ec-extremal-*.json")).read_text())
    assert doc["report"]["count"] == 8


def test_interpolate_and_wcurve_commands(tmp_path):
    out = ["--outdir", str(tmp_path)]
    rc = main(["detlab", "interpolate", "--q", "3", "--curve", "Y-X^2",
               "--n", "4", "--d", "2"] + out)
    assert rc == 0
    doc = json.loads(next(tmp_path.glob("detlab-interpolate-*.json"))
                     .read_text())
    assert doc["report"]["proportional_to_curve"]
    rc = main(["detlab", "wcurve-max", "--q", "2", "--omega", "3",
               "--curve", "Y-X^2", "--n", "2"] + out)
    assert rc == 0
    rc = main(["detlab", "mean-identity", "--q", "2", "--curve", "Y-X^2",
               "--n", "2", "--f", "T", "--omega", "3"] + out)
    assert rc == 0
    rc = main(["residue-stats", "--q", "2", "--curve", "Y-X^2", "--n", "2",
               "--f", "T^2+T+1"] + out)
    assert rc == 0
    for jf in tmp_path.glob("*.json"):
        stem = jf.stem
        jsonschema.validate(json.loads(jf.read_text()), _schema_for(stem))
