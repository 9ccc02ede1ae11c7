"""Config loading, serialization round-trips, and command exit codes."""

import csv
import importlib
import io
import json
import os

import pytest

import qesmag
from qesmag.cli import (
    ConfigError,
    load_config,
    main,
    read_spectrum_csv,
    read_spectrum_json,
    write_spectrum,
)
from qesmag.qes_core import CouplingTag, ParticlePair, FamilyI, derive_constants
from qesmag.spectra import SpectrumJob, assemble_spectrum

COULOMB_YAML = """
pair: {m1: 1.0, m2: 1.0, e1: 1.0, e2: 1.0}
case: charged_ec0
potential: {family: I, g_c: 1.0}
d_list: [1]
s_list: [0]
"""

SEXTIC_YAML = """
pair: {m1: 2.0, m2: 2.0, e1: 1.0, e2: 1.0}
case: charged_ec0
potential: {family: II, k6: 0.5, k2: -4.0}
d_list: [0]
s_list: [0]
"""

INVERSE_SQUARE_YAML = """
pair: {m1: 2.0, m2: 2.0, e1: 1.0, e2: 1.0}
case: charged_ec0
potential: {family: III, l1: -1.0, l4: 0.5, k2: 1.0}
d_list: [0]
s_list: [0]
"""

NEUTRAL_YAML = """
pair: {m1: 1.0, m2: 1.0, e1: 1.0, e2: -1.0}
case: neutral_rest
potential: {family: I, g_c: -1.0}
d_list: [1]
s_list: [0]
"""


def _write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Config loading


def test_load_config_coulomb(tmp_path):
    cfg = load_config(_write(tmp_path, COULOMB_YAML))
    assert cfg.tag is CouplingTag.CHARGED_EC0
    assert cfg.pot.family == "I"
    assert cfg.pot.g_c == 1.0
    assert cfg.d_list == (1,) and cfg.s_list == (0,)
    assert cfg.solve_for == "field"
    assert cfg.oracle_enabled


def test_load_config_family_iii_defaults_to_potential_param(tmp_path):
    cfg = load_config(_write(tmp_path, INVERSE_SQUARE_YAML))
    assert cfg.solve_for == "potential_param"


def test_coulomb_strength_defaults_to_charge_product(tmp_path):
    text = COULOMB_YAML.replace("potential: {family: I, g_c: 1.0}",
                                "potential: {family: I}")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.pot.g_c == 1.0  # e1 * e2


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace(", k6: 0.5", ""), "potential.k6"),
    (lambda t: t.replace("family: II", "family: IX"), "potential.family"),
    (lambda t: t.replace("k2: -4.0", "k9: 1.0"), "potential.k9"),
    (lambda t: t.replace("d_list: [0]\n", ""), "d_list"),
    (lambda t: t + "solve_for: potential_param\n", "solve_for"),
    (lambda t: t + "output: {format: xml}\n", "output.format"),
    (lambda t: t + "scan: {parameter: l4, start: 0.0}\n", "scan.parameter"),
])
def test_load_config_reports_key_paths(tmp_path, mangle, needle):
    path = _write(tmp_path, mangle(SEXTIC_YAML))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert needle in str(err.value)


def test_load_config_family_iii_rejects_field_mode(tmp_path):
    path = _write(tmp_path, INVERSE_SQUARE_YAML + "solve_for: field\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_yaml(tmp_path):
    path = _write(tmp_path, "pair: {m1: [unclosed\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "YAML" in str(err.value)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


# ---------------------------------------------------------------------------
# Serialization round-trips


def _coulomb_lines():
    consts = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0))
    lines, _ = assemble_spectrum(
        SpectrumJob(pot=FamilyI(g_c=1.0, k1=0.25), consts=consts,
                    tag=CouplingTag.CHARGED_EC0, d_list=(1, 2),
                    s_list=(0, 1)))
    return lines


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_round_trip(tmp_path, fmt):
    lines = _coulomb_lines()
    assert lines
    path = str(tmp_path / f"spectrum.{fmt}")
    write_spectrum(lines, path, fmt)
    back = (read_spectrum_csv if fmt == "csv" else read_spectrum_json)(path)
    assert len(back) == len(lines)
    for orig, copy in zip(lines, back):
        # %.17g print format round-trips doubles exactly
        assert copy == orig


def test_json_payload_shape(tmp_path):
    lines = _coulomb_lines()
    path = str(tmp_path / "spectrum.json")
    write_spectrum(lines, path, "json")
    payload = json.loads(open(path).read())
    assert isinstance(payload, list)
    assert payload[0]["family"] == "I"
    assert payload[0]["quantized_name"] == "omega_c"


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_coulomb_root(tmp_path, capsys):
    code = main(["solve", "--config", _write(tmp_path, COULOMB_YAML)])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split()[:4] == ["family", "d", "s", "branch"]
    fields = row.split()
    assert fields[4] == "omega_c"
    assert float(fields[5]) == pytest.approx(2.0, rel=1e-9)
    assert float(fields[6]) == pytest.approx(2.0, rel=1e-9)


def test_solve_exit_two_when_spectrum_empty(tmp_path, capsys):
    text = SEXTIC_YAML.replace(", k2: -4.0", "")
    code = main(["solve", "--config", _write(tmp_path, text)])
    assert code == 2
    assert "no admissible spectrum lines" in capsys.readouterr().out


def test_solve_exit_one_on_config_error(tmp_path, capsys):
    text = SEXTIC_YAML.replace(", k6: 0.5", "")
    code = main(["solve", "--config", _write(tmp_path, text)])
    assert code == 1
    assert "potential.k6" in capsys.readouterr().err


def test_solve_exit_one_on_bad_pair(tmp_path, capsys):
    text = COULOMB_YAML.replace("m1: 1.0", "m1: -1.0")
    code = main(["solve", "--config", _write(tmp_path, text)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("pair,case,needle", [
    ("{m1: 1.0, m2: 3.0, e1: 1.0, e2: 1.0}", "charged_ec0", "e_c = 0.5"),
    ("{m1: 1.0, m2: 1.0, e1: 1.0, e2: 1.0}", "neutral_rest", "q = 2"),
])
def test_solve_rejects_inadmissible_coupling_case(tmp_path, capsys, pair,
                                                  case, needle):
    text = COULOMB_YAML.replace("{m1: 1.0, m2: 1.0, e1: 1.0, e2: 1.0}", pair)
    text = text.replace("case: charged_ec0", f"case: {case}")
    code = main(["solve", "--config", _write(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: case: ")
    assert needle in captured.err


def test_solve_writes_output_file(tmp_path, capsys):
    out_file = tmp_path / "levels.csv"
    code = main(["solve", "--config", _write(tmp_path, COULOMB_YAML),
                 "--out", str(out_file)])
    assert code == 0
    assert out_file.exists()
    leftovers = [n for n in os.listdir(tmp_path) if "tmp" in n]
    assert leftovers == []
    lines = read_spectrum_csv(str(out_file))
    assert len(lines) == 1
    assert lines[0].quantized_value == pytest.approx(2.0, rel=1e-12)


def test_solve_json_output(tmp_path):
    out_file = tmp_path / "levels.json"
    code = main(["solve", "--config", _write(tmp_path, SEXTIC_YAML),
                 "--out", str(out_file), "--format", "json"])
    assert code == 0
    back = read_spectrum_json(str(out_file))
    assert back[0].quantized_value == 4.0
    assert back[0].poly == (1.0,)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_fixture(tmp_path, capsys):
    code = main(["verify", "--config", _write(tmp_path, SEXTIC_YAML)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_unverified_when_oracle_disabled(tmp_path, capsys):
    text = SEXTIC_YAML + "oracle: {enabled: false}\n"
    code = main(["verify", "--config", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert "unverified" in out


def test_verify_printed_variants_fail(tmp_path, capsys,
                                     inject_printed_formulas):
    inject_printed_formulas()
    code = main(["verify", "--config", _write(tmp_path, INVERSE_SQUARE_YAML)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_partial_grid_override(tmp_path, capsys):
    text = SEXTIC_YAML + "oracle: {rho_max: 8.0}\n"
    code = main(["verify", "--config", _write(tmp_path, text)])
    assert code == 1
    assert "rho_min" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan


def test_scan_tracks_root_across_parameter(tmp_path, capsys):
    text = COULOMB_YAML + "scan: {parameter: k1, start: 0.0, stop: 1.0, steps: 2}\n"
    code = main(["scan", "--config", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["scan_value"] for r in rows} == {"0", "0.5", "1"}
    found = [r for r in rows if r["quantized_value"]]
    assert len(found) == 3
    omegas = [float(r["quantized_value"]) for r in found]
    assert omegas[0] == pytest.approx(2.0, rel=1e-10)
    assert len(set(omegas)) == 3  # root moves with the parameter


def test_scan_zero_steps_matches_solve(tmp_path, capsys):
    text = COULOMB_YAML + "scan: {parameter: k1, start: 0.0}\n"
    code = main(["scan", "--config", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    found = [r for r in rows if r["quantized_value"]]
    assert len(found) == 1
    assert float(found[0]["quantized_value"]) == pytest.approx(2.0,
                                                               rel=1e-12)


def test_scan_empty_window_exits_two_with_placeholders(tmp_path, capsys):
    text = SEXTIC_YAML.replace("k2: -4.0", "k2: 0.0") + \
        "scan: {parameter: k2, start: 0.0, stop: 1.0, steps: 2}\n"
    code = main(["scan", "--config", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3  # one placeholder per value for (d=0, s=0, b=0)
    assert all(r["quantized_value"] == "" for r in rows)


def test_scan_requires_section(tmp_path, capsys):
    code = main(["scan", "--config", _write(tmp_path, COULOMB_YAML)])
    assert code == 1
    assert "scan" in capsys.readouterr().err


def test_scan_writes_file(tmp_path):
    text = COULOMB_YAML + "scan: {parameter: k1, start: 0.0, stop: 0.5, steps: 1}\n"
    out_file = tmp_path / "scan.csv"
    code = main(["scan", "--config", _write(tmp_path, text),
                 "--out", str(out_file)])
    assert code == 0
    rows = list(csv.DictReader(open(out_file)))
    assert rows and rows[0]["scan_parameter"] == "k1"


# ---------------------------------------------------------------------------
# export


def _export_yaml(body, selector, start, stop, points=60):
    return body + (f"export:\n  selector: {selector}\n"
                   f"  rho_start: {start}\n  rho_stop: {stop}\n"
                   f"  points: {points}\n")


def test_export_sextic_profile(tmp_path, capsys):
    text = _export_yaml(SEXTIC_YAML, "{family: II, d: 0, s: 0, branch: 0}",
                        0.1, 3.0)
    code = main(["export", "--config", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 60
    zetas = [float(r["zeta"]) for r in rows]
    assert all(z > 0.0 for z in zetas)
    assert zetas == sorted(zetas, reverse=True)  # xi = 0: pure decay
    norm = [float(r["zeta_normalized"]) for r in rows]
    assert norm[0] / zetas[0] == pytest.approx(norm[-1] / zetas[-1],
                                               rel=1e-12)


def test_export_inverse_square_vanishes_at_origin(tmp_path, capsys):
    text = _export_yaml(INVERSE_SQUARE_YAML, "{family: III, d: 0}",
                        0.01, 1.0)
    code = main(["export", "--config", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["zeta"]) < 1e-40
    assert float(rows[0]["exponent_log"]) < -90.0


def test_export_excited_branch_changes_sign_once(tmp_path, capsys):
    text = _export_yaml(NEUTRAL_YAML, "{branch: 1}", 0.05, 4.0, points=200)
    code = main(["export", "--config", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    zetas = [float(r["zeta"]) for r in rows]
    flips = sum(1 for a, b in zip(zetas, zetas[1:]) if a * b < 0.0)
    assert flips == 1


@pytest.mark.parametrize("selector, cells", [
    ("{d: 2, s: 1, branch: 0}", [(2, 1)]),
    ("{d: 2}", [(2, 0), (2, 1)]),
    ("{s: 1, branch: 0}", [(0, 1), (1, 1), (2, 1)]),
    ("{family: II, d: 5}", []),  # never a cell the config lacks
])
def test_export_solves_only_selected_cells(tmp_path, capsys, monkeypatch,
                                           selector, cells):
    from qesmag import spectra

    solved = []
    original = spectra._cell_lines

    def counted(job, d, s):
        solved.append((d, s))
        return original(job, d, s)

    monkeypatch.setattr(spectra, "_cell_lines", counted)
    body = SEXTIC_YAML.replace("d_list: [0]", "d_list: [0, 1, 2]") \
        .replace("s_list: [0]", "s_list: [0, 1]") \
        .replace("k2: -4.0", "k2: -30.0")
    code = main(["export", "--config",
                 _write(tmp_path, _export_yaml(body, selector, 0.1, 3.0))])
    assert solved == cells
    assert code == (0 if cells else 1)


def test_export_unmatched_selector_fails(tmp_path, capsys):
    text = _export_yaml(SEXTIC_YAML, "{family: II, d: 5}", 0.1, 1.0)
    code = main(["export", "--config", _write(tmp_path, text)])
    assert code == 1
    assert "selector" in capsys.readouterr().err


def test_export_unknown_selector_key(tmp_path, capsys):
    # checked before any cell is solved, whatever the other keys select
    for selector in ("{color: red}", "{d: 9, color: red}"):
        text = _export_yaml(SEXTIC_YAML, selector, 0.1, 1.0)
        code = main(["export", "--config", _write(tmp_path, text)])
        assert code == 1
        assert "export.selector.color" in capsys.readouterr().err

# ---------------------------------------------------------------------------
# supported surface


def test_removed_debug_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", _write(tmp_path, INVERSE_SQUARE_YAML),
              "--debug-paper-variants"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("module", [
    "qesmag", "qesmag.cli", "qesmag.oracle", "qesmag.qes_core",
    "qesmag.sl2_rep", "qesmag.spectra", "qesmag.wavefn"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_the_supported_api():
    assert sorted(qesmag.__all__) == sorted([
        "ParticlePair", "FamilyI", "FamilyII", "FamilyIII",
        "CouplingTag", "CouplingCase",
        "derive_constants", "effective_radial_problem", "case_lambdas",
        "case_frequency", "ansatz_params",
        "SpectrumJob", "SpectrumLine", "assemble_spectrum", "line_problem",
        "cross_validate", "OracleReport", "ode_residual",
        "RadialWavefunction",
        "QesError", "DomainError", "FallToCentreError",
        "DegenerateParameterError", "AdmissibilityError", "NumericalError",
    ])
    assert len(set(qesmag.__all__)) == len(qesmag.__all__)
