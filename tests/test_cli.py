"""
The command-line contract: exit codes, JSON reports, reproducibility.

Exit codes: 0 success or accepted, 2 refused (orbit present), 3 exhausted
sweep, 1 input error of any kind, including command-line misuse.
"""

import json
import os
import subprocess
import sys

import pytest

import curvetwist
from curvetwist.cli import main


PUNCTURED_TORUS_WS = {
    "surface": {"genus": 1, "punctures": 1},
    "curves": {
        "a": {"weights": ["0", "1", "1"]},
        "b": {"weights": ["1", "0", "1"]},
    },
    "maps": {
        "f": {"word": "T(b)"},
        "id": {"word": ""},
        "g": {"word": "T(a) * T(b)^-1"},
    },
    "system": {"components": ["a"], "map": "f"},
    "params": {},
}


@pytest.fixture(scope="module")
def ws_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "torus.json"
    path.write_text(json.dumps(PUNCTURED_TORUS_WS))
    return str(path)


@pytest.fixture(scope="module")
def ws_orbit_path(tmp_path_factory):
    doc = dict(PUNCTURED_TORUS_WS)
    doc["system"] = {"components": ["a"], "map": "id"}
    path = tmp_path_factory.mktemp("ws") / "orbit.json"
    path.write_text(json.dumps(doc))
    return str(path)


# the child interpreter imports the same copy of the package as this one
SRC = os.path.dirname(os.path.dirname(os.path.abspath(curvetwist.__file__)))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "curvetwist", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)
    return proc


def run_json(*argv, expect=0):
    proc = run_cli(*argv)
    assert proc.returncode == expect, proc.stderr
    return json.loads(proc.stdout)


def test_surface_info(ws_path):
    doc = run_json("surface", "info", ws_path)
    assert doc["command"] == "surface info"
    assert (doc["genus"], doc["punctures"]) == (1, 1)
    assert doc["euler_characteristic"] == -1


def test_curve_subcommands(ws_path):
    doc = run_json("curve", "validate", ws_path, "a")
    assert doc["valid"] and doc["is_single"]
    doc = run_json("curve", "cut", ws_path, "b")
    assert doc["pieces"][0]["is_pants"]
    doc = run_json("curve", "essential", ws_path, "a")
    assert doc["essential"]


def test_map_act_matches_frozen_handedness(ws_path):
    doc = run_json("map", "act", ws_path, "f", "a")
    assert doc["image"]["weights"] == ["1", "1", "0"]
    assert doc["fixed"] is False


def test_map_classify_exit_zero_for_every_verdict(ws_path):
    doc = run_json("map", "classify", ws_path, "id")
    assert doc["report"]["verdict"] == "periodic"
    assert doc["report"]["order"] == 1
    doc = run_json("map", "classify", ws_path, "g")
    assert doc["report"]["verdict"] == "pseudo_anosov_evidence"
    assert doc["report"]["lambda_hat_decimal"].startswith("2.6180339887")


@pytest.mark.parametrize("name", ["id", "g"])
def test_closed_stdout_exits_one_without_a_traceback(ws_path, name):
    """The parent closes its end of the pipe before the report is written
    (as `| head -n 3` does once it has read enough)."""
    proc = subprocess.Popen([sys.executable, "-m", "curvetwist", "map",
                             "classify", ws_path, name],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=CHILD_ENV)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == b""


def test_gamma_orbit_exit_codes(ws_path, ws_orbit_path):
    doc = run_json("gamma", "orbit", ws_orbit_path, expect=2)
    assert doc["orbit"] == ["a"]
    assert doc["period"] == 1
    doc = run_json("gamma", "orbit", ws_path)
    assert doc["orbit"] is None
    doc = run_json("gamma", "chains", ws_path)
    assert doc["chains"] == [{"vertices": ["a"], "representative": "a",
                              "is_isolated": True}]


def test_construct_search_accepts(ws_path):
    doc = run_json("construct", "search", ws_path)
    assert doc["status"] == "accepted"
    assert doc["exponents"] == {"a": 5}
    assert doc["report"]["lambda_hat_decimal"].startswith("2.6180339887")


def test_construct_search_exhausts_with_exit_three(ws_path):
    doc = run_json("construct", "search", ws_path, "--k-max", "3", expect=3)
    assert doc["status"] == "exhausted"
    assert len(doc["attempts"]) == 3


def test_construct_search_refuses_with_exit_two(ws_orbit_path):
    doc = run_json("construct", "search", ws_orbit_path, expect=2)
    assert doc["status"] == "refused"
    assert doc["orbit"] == ["a"]


def test_input_errors_exit_one(ws_path, tmp_path):
    assert run_cli("curve", "validate", ws_path, "zz").returncode == 1
    assert run_cli("surface", "info", str(tmp_path / "nope.json")) \
        .returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("surface", "info", str(bad)).returncode == 1
    assert run_cli("no-such-command").returncode == 1
    bad.write_bytes(b"\xff\xfe{")
    assert_one_line_error(run_cli("surface", "info", str(bad)),
                          "cannot read workspace")


def test_curve_validate_reports_a_valid_curve(ws_path):
    doc = run_json("curve", "validate", ws_path, "a")
    assert doc == {"command": "curve validate", "curve": "a", "seed": 0,
                   "valid": True, "component_count": 1, "is_single": True,
                   "components": [{"weights": ["0", "1", "1"],
                                   "multiplicity": 1}]}


def test_one_process_parser_keeps_no_state(tmp_path, capsys):
    """main builds its parser once per process: a flag given to one call
    and a refused flag leave the next call reading the workspace."""
    path = _workspace(tmp_path, params={"k_max": 6})
    assert main(["construct", "search", path, "--k-max", "3"]) == 3
    assert json.loads(capsys.readouterr().out)["schedule"]["k_max"] == 3
    assert main(["construct", "search", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schedule"]["k_max"] == 6 and doc["exponents"] == {"a": 5}
    assert main(["construct", "search", path, "--k-max", "x"]) == 1
    assert capsys.readouterr().err.startswith("error: k_max must be")
    with pytest.raises(SystemExit) as exit_:
        main(["construct", "search", path, "--k-max"])
    assert exit_.value.code == 1
    assert capsys.readouterr().err.startswith("error: argument --k-max")
    assert main(["construct", "search", path, "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schedule"]["k_max"] == 6 and doc["seed"] == 4


def test_reports_are_byte_identical(ws_path):
    a = run_cli("construct", "search", ws_path)
    b = run_cli("construct", "search", ws_path)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode


def test_timing_is_opt_in(ws_path):
    plain = json.loads(run_cli("gamma", "orbit", ws_path).stdout)
    timed = json.loads(run_cli("gamma", "orbit", ws_path,
                               "--timing").stdout)
    assert "timing_seconds" not in plain
    assert "timing_seconds" in timed


def test_emitted_encoding_round_trips(ws_path, tmp_path):
    comp = run_json("map", "compose", ws_path, "g", "f")
    doc = dict(PUNCTURED_TORUS_WS)
    doc["maps"] = dict(doc["maps"])
    doc["maps"]["gf"] = comp["encoding"]
    path = tmp_path / "round.json"
    path.write_text(json.dumps(doc))
    direct = run_json("map", "act", str(path), "gf", "a")
    # g f = T(a) T(b)^-1 T(b) acts as T(a), which fixes a
    assert direct["image"]["weights"] == ["0", "1", "1"]
    assert direct["fixed"] is True


# S(2,0) with system {c} and f = T(x)
GENUS_TWO_WS = {
    "surface": {"genus": 2, "punctures": 0},
    "curves": {
        "c": {"weights": ["0", "0", "1", "0", "0", "0", "0", "1", "0"]},
        "x": {"weights": ["0", "1", "0", "1", "2", "1", "1", "1", "1"]},
    },
    "maps": {"f": {"word": "T(x)"}},
    "system": {"components": ["c"], "map": "f"},
}


def test_maximalize_report(tmp_path):
    path = tmp_path / "genus2.json"
    path.write_text(json.dumps(GENUS_TWO_WS))
    out = run_json("construct", "maximalize", str(path))
    assert out["status"] == "completed"
    assert out["is_maximal"] is True
    assert sorted(out["system"]) == ["c", "d1", "d2"]
    assert out["added"] == ["d1", "d2"]
    # the report embeds the adjusted map; its image table matches
    assert set(out["images"]) == {"c", "d1", "d2"}


def test_maximalize_checks_independence_once(tmp_path, capsys, monkeypatch):
    """The input system is checked once; the completed one, which the
    completion built disjoint, is not checked again (2 calls, on 1 and then
    3 curves, when `is_maximal` re-checked it)."""
    from curvetwist import orbits
    sizes = []
    check = orbits.check_independent

    def counted(sys_):
        sizes.append(len(sys_))
        return check(sys_)

    monkeypatch.setattr(orbits, "check_independent", counted)
    path = tmp_path / "genus2.json"
    path.write_text(json.dumps(GENUS_TWO_WS))
    assert main(["construct", "maximalize", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["is_maximal"] is True
    assert sizes == [1]


def test_flag_overrides_workspace_params(tmp_path):
    doc = dict(PUNCTURED_TORUS_WS)
    doc["params"] = {"k_max": 3}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert run_cli("construct", "search", str(path)).returncode == 3
    assert run_cli("construct", "search", str(path),
                   "--k-max", "10").returncode == 0


# past int()'s default limit of 4,300 digits
LONG_DIGITS = "1" * 5000
# a JSON integer of LONG_DIGITS, which _workspace writes bare
BARE_LONG = "bare:" + LONG_DIGITS


def _workspace(tmp_path, **changes):
    doc = dict(PUNCTURED_TORUS_WS)
    doc.update(changes)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc).replace(json.dumps(BARE_LONG),
                                            LONG_DIGITS))
    return str(path)


def assert_one_line_error(proc, field):
    """Exit 1 with one short stderr line naming the field: a rejected
    value is never echoed in full."""
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and field in lines[0], proc.stderr[:400]
    assert len(proc.stderr.encode()) <= 200, proc.stderr[:400]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,params,field", [
    (("construct", "search"), {"k_max": "abc"}, "k_max"),
    (("construct", "search"), {"k_max": 2.5}, "k_max"),
    (("construct", "search"), {"weight_cap": [8]}, "weight_cap"),
    (("construct", "search"), {"weight_cap": "lots"}, "weight_cap"),
    # the retired order_bound is an unknown key, refused whatever its value
    (("map", "classify", "g"), {"order_bound": 5}, "order_bound"),
    (("map", "classify", "g"), {"weight_cap": "x"}, "weight_cap"),
    (("map", "classify", "g"), {"order_bound": 0}, "order_bound"),
    (("construct", "search"), {"k_max": 3.0}, "k_max"),
    (("construct", "search"), {"k_max": "1_0"}, "k_max"),
    (("map", "classify", "g"), {"weight_cap": True}, "weight_cap"),
    pytest.param(("construct", "search"), {"k_max": LONG_DIGITS}, "k_max",
                 id="k_max-5000-digits"),
    pytest.param(("map", "classify", "g"), {"weight_cap": BARE_LONG},
                 'workspace["params"]["weight_cap"]',
                 id="bare-weight_cap-5000-digits"),
])
def test_bad_integer_params_exit_one_naming_the_field(tmp_path, command,
                                                     params, field):
    path = _workspace(tmp_path, params=params)
    argv = list(command[:2]) + [path] + list(command[2:])
    assert_one_line_error(run_cli(*argv), field)


@pytest.mark.parametrize("argv,params,field", [
    (("surface", "info"), {"k_max": "abc"}, "k_max"),
    (("construct", "maximalize"), {"weight_cap": "lots"}, "weight_cap"),
    (("map", "act", "f", "a"), {"tolerance": "x", "independent": "yes"},
     "tolerance"),
    (("map", "act", "f", "a"), {"independent": "yes"}, "independent"),
    (("gamma", "build"), {"order_bound": 5}, "order_bound"),
    (("curve", "validate", "a"), {"k_max": 0}, "k_max"),
], ids=["info-k-max", "maximalize-weight-cap", "act-tolerance",
        "act-independent", "build-order-bound", "validate-k-max"])
def test_params_values_are_checked_at_load(tmp_path, argv, params, field):
    """A command that does not read a key still refuses its bad value."""
    path = _workspace(tmp_path, params=params)
    argv = list(argv[:2]) + [path] + list(argv[2:])
    assert_one_line_error(run_cli(*argv), field)


@pytest.mark.parametrize("flag,value", [
    ("--k-max", "x"), ("--k-max", "2.5"), ("--weight-cap", "lots"),
    ("--tolerance", "abc"),
    ("--seed", "x"), ("--seed", "1_0"),
    pytest.param("--k-max", LONG_DIGITS, id="--k-max-5000-digits"),
    pytest.param("--seed", LONG_DIGITS, id="--seed-5000-digits"),
    pytest.param("--weight-cap", LONG_DIGITS, id="--weight-cap-5000-digits"),
    pytest.param("--tolerance", "1e10000000", id="--tolerance-1e10000000"),
    pytest.param("--tolerance", "1e" + LONG_DIGITS,
                 id="--tolerance-1e5000-digits"),
])
def test_bad_flag_values_exit_one_naming_the_field(ws_path, flag, value):
    field = flag[2:].replace("-", "_")
    assert_one_line_error(
        run_cli("construct", "search", ws_path, flag, value), field)


def test_help_still_prints_the_usage():
    proc = run_cli("construct", "search", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: curvetwist construct search")


def test_maximalize_takes_no_weight_cap(ws_path):
    # the completion picks its curves by an exact rule, with no cap
    assert_one_line_error(
        run_cli("construct", "maximalize", ws_path, "--weight-cap", "4"),
        "error: unrecognized arguments: --weight-cap")


@pytest.mark.parametrize("argv,flag", [
    (("map", "act", "{ws}", "f", "a", "--tolerance=-1"), "--tolerance=-1"),
    (("map", "act", "{ws}", "f", "a", "--k-max", "0"), "--k-max"),
    (("map", "act", "{ws}", "f", "a", "--order-bound", "-5"),
     "--order-bound"),
    (("map", "classify", "{ws}", "g", "--k-max", "3"), "--k-max"),
    (("map", "classify", "{ws}", "g", "--independent"), "--independent"),
    (("map", "classify", "{ws}", "g", "--order-bound", "4"),
     "--order-bound 4"),
    (("construct", "search", "{ws}", "--order-bound", "4"),
     "--order-bound 4"),
    (("surface", "info", "{ws}", "--weight-cap", "4"), "--weight-cap"),
    (("curve", "cut", "{ws}", "a", "--independent"), "--independent"),
    (("gamma", "orbit", "{ws}", "--k-max", "3"), "--k-max"),
    (("construct", "maximalize", "{ws}", "--tolerance", "0"), "--tolerance"),
], ids=["act-tolerance", "act-k-max", "act-order-bound", "classify-k-max",
        "classify-independent", "classify-order-bound", "search-order-bound",
        "info-weight-cap", "cut-independent", "orbit-k-max",
        "maximalize-tolerance"])
def test_a_flag_the_command_does_not_read_is_refused(ws_path, argv, flag):
    argv = [ws_path if a == "{ws}" else a for a in argv]
    assert_one_line_error(run_cli(*argv),
                          "error: unrecognized arguments: " + flag)


def test_every_command_takes_seed_and_timing(ws_path):
    for argv in (("surface", "info", ws_path), ("curve", "cut", ws_path, "a"),
                 ("map", "act", ws_path, "f", "a"),
                 ("gamma", "chains", ws_path),
                 ("construct", "maximalize", ws_path)):
        doc = run_json(*argv, "--seed", "7", "--timing")
        assert doc["seed"] == 7 and "timing_seconds" in doc


def test_classify_and_search_read_their_flags(ws_path):
    doc = run_json("map", "classify", ws_path, "g", "--tolerance", "0.5",
                   "--weight-cap", "6")
    assert (doc["params"]["residual_tol"], doc["params"]["weight_cap"]) \
        == ("1/2", 6)
    assert "order_bound" not in doc["params"]
    doc = run_json("construct", "search", ws_path, "--k-max", "2",
                   "--independent", "--weight-cap", "6", expect=3)
    assert doc["schedule"]["k_max"] == 2
    assert doc["schedule"]["independent"] is True
    assert doc["schedule"]["classify"]["weight_cap"] == 6


@pytest.mark.parametrize("key", ["k-max", "order-bound", "weight-cap",
                                 "kmax", "depth", "seed", "order_bound"])
def test_unknown_params_keys_are_refused(tmp_path, key):
    path = _workspace(tmp_path, params={key: 3})
    assert_one_line_error(run_cli("surface", "info", path),
                          "unknown params key %r" % key)


def test_a_hyphen_alias_does_not_shadow_its_param(tmp_path):
    # "k-max" was once read before "k_max"; now it is refused at load
    path = _workspace(tmp_path, params={"k-max": 2, "k_max": 9})
    assert_one_line_error(run_cli("construct", "search", path),
                          "unknown params key 'k-max'")


LONG_NAME = "z" * 5000
# a refusal quotes a workspace name by the first 40 characters of its repr
QUOTED = repr(LONG_NAME)[:40]


@pytest.mark.parametrize("argv,changes,field", [
    (("map", "act", "{ws}", "f", LONG_NAME), {},
     "unknown curve name " + QUOTED),
    (("map", "act", "{ws}", LONG_NAME, "a"), {},
     "unknown map name " + QUOTED),
    (("surface", "info", "{ws}"),
     {"maps": {"f": {"word": "T(%s)" % LONG_NAME}}},
     "map 'f': unknown curve name " + QUOTED),
    (("surface", "info", "{ws}"), {"params": {LONG_NAME: 3}},
     "unknown params key " + QUOTED),
    (("surface", "info", "{ws}"),
     {"system": {"components": [LONG_NAME], "map": "f"}},
     "system component %s is not a curve" % QUOTED),
    (("surface", "info", "{ws}"),
     {"curves": {LONG_NAME: {"weights": ["0", "1"]}}},
     "curve %s: expected 3 weights, got 2" % QUOTED),
    (("surface", "info", "{ws}"), {"maps": {LONG_NAME: 5}},
     "map %s must be an object" % QUOTED),
], ids=["act-curve", "act-map", "word-curve", "params-key",
        "system-component", "curve-weights", "map-not-object"])
def test_a_long_name_is_quoted_short(tmp_path, argv, changes, field):
    """A refusal names a 5000-character workspace name by its first 40
    characters, on one stderr line of at most 200 bytes."""
    path = _workspace(tmp_path, **changes)
    proc = run_cli(*[path if a == "{ws}" else a for a in argv])
    assert_one_line_error(proc, field)


SYSTEM_COMMANDS = [("gamma", "build"), ("gamma", "orbit"), ("gamma", "chains"),
                   ("construct", "maximalize"), ("construct", "search")]


@pytest.mark.parametrize("components,weights,field", [
    ([LONG_NAME], ["2", "2", "2"],
     "system is not independent: %s: inessential (vertex or puncture link)"
     % QUOTED),
    (["a", LONG_NAME], ["0", "1", "1"],
     "system is not independent: 'a' and %s are parallel" % QUOTED),
], ids=["puncture-link", "parallel-pair"])
@pytest.mark.parametrize("command", SYSTEM_COMMANDS,
                         ids=["-".join(c) for c in SYSTEM_COMMANDS])
def test_a_long_system_component_name_is_quoted_short(tmp_path, command,
                                                      components, weights,
                                                      field):
    """Every system command refuses a dependent system with one line of one
    form, naming a 5000-character component by its first 40 characters."""
    curves = dict(PUNCTURED_TORUS_WS["curves"],
                  **{LONG_NAME: {"weights": weights}})
    path = _workspace(tmp_path, curves=curves,
                      system={"components": components, "map": "f"})
    assert_one_line_error(run_cli(*command, path), field)


def test_integer_params_may_be_decimal_strings(tmp_path):
    path = _workspace(tmp_path, params={"k_max": "3"})
    assert run_cli("construct", "search", path).returncode == 3


@pytest.mark.parametrize("value", ["-5", "0"])
def test_k_max_below_one_is_rejected(ws_path, tmp_path, value):
    assert_one_line_error(
        run_cli("construct", "search", ws_path, "--k-max", value), "k_max")
    path = _workspace(tmp_path, params={"k_max": int(value)})
    assert_one_line_error(run_cli("construct", "search", path), "k_max")


@pytest.mark.parametrize("params,field", [
    ({"independent": "false"}, "independent"),
    ({"independent": "no"}, "independent"),
    ({"independent": [1]}, "independent"),
    ({"independent": -1}, "independent"),
    ({"independent": 1}, "independent"),
    ({"tolerance": "-1"}, "tolerance"),
    ({"tolerance": -0.5}, "tolerance"),
    ({"tolerance": "abc"}, "tolerance"),
    pytest.param({"tolerance": "1e10000000"}, "tolerance",
                 id="tolerance-1e10000000"),
    pytest.param({"tolerance": "1e-10000000"}, "tolerance",
                 id="tolerance-1e-10000000"),
    pytest.param({"tolerance": BARE_LONG}, 'workspace["params"]["tolerance"]',
                 id="bare-tolerance-5000-digits"),
])
def test_misread_search_params_exit_one_naming_the_field(tmp_path, params,
                                                         field):
    params = dict(params, k_max=3)
    path = _workspace(tmp_path, params=params)
    assert_one_line_error(run_cli("construct", "search", path), field)


@pytest.mark.parametrize("params,status,independent", [
    ({"independent": True}, 3, True),
    ({"independent": False}, 3, False),
    ({"tolerance": "0"}, 3, False),
    ({"tolerance": 0.001}, 3, False),
])
def test_well_formed_search_params_are_read(tmp_path, params, status,
                                            independent):
    path = _workspace(tmp_path, params=dict(params, k_max=3))
    proc = run_cli("construct", "search", path)
    assert proc.returncode == status, proc.stderr
    assert json.loads(proc.stdout)["schedule"]["independent"] is independent


def test_tolerance_flag_must_not_be_negative(ws_path):
    assert_one_line_error(
        run_cli("construct", "search", ws_path, "--tolerance=-1"), "tolerance")


@pytest.mark.parametrize("system", [
    {"components": "a", "map": "f"},
    {"components": "ab", "map": "f"},
    {"components": [["a"]], "map": "f"},
    {"components": ["a"], "map": ["f"]},
])
def test_system_components_must_be_a_list_of_names(tmp_path, system):
    path = _workspace(tmp_path, system=system)
    assert_one_line_error(run_cli("construct", "search", path), "system")


@pytest.mark.parametrize("field,value", [
    ("curves", ["a"]), ("curves", []), ("curves", "a"), ("curves", None),
    ("maps", ["f"]), ("maps", []), ("maps", 7),
    ("params", ["k_max"]), ("params", []), ("params", None),
], ids=["curves-list", "curves-empty-list", "curves-string", "curves-null",
        "maps-list", "maps-empty-list", "maps-int",
        "params-list", "params-empty-list", "params-null"])
def test_curves_maps_and_params_must_be_objects(tmp_path, field, value):
    path = _workspace(tmp_path, **{field: value})
    assert_one_line_error(run_cli("surface", "info", path),
                          '"%s" must be an object' % field)


def test_a_repeated_system_component_is_refused(tmp_path):
    path = _workspace(tmp_path, system={"components": ["a", "a"],
                                        "map": "f"})
    assert_one_line_error(run_cli("gamma", "build", path),
                          "system component 'a' is repeated")


@pytest.mark.parametrize("names", ["xy", [["x"]], [1], {"x": 1}],
                         ids=["string", "nested-list", "int", "object"])
def test_curve_component_names_must_be_a_list_of_names(tmp_path, names):
    curves = dict(PUNCTURED_TORUS_WS["curves"],
                  a={"weights": ["0", "1", "1"], "components": names})
    path = _workspace(tmp_path, curves=curves)
    assert_one_line_error(run_cli("construct", "maximalize", path),
                          """curve 'a': "components" must be a list of names""")


def test_curve_component_names_are_echoed(tmp_path):
    curves = dict(PUNCTURED_TORUS_WS["curves"],
                  a={"weights": ["0", "1", "1"], "components": ["x"]})
    path = _workspace(tmp_path, curves=curves)
    out = run_json("construct", "maximalize", path)
    assert out["system"]["a"]["components"] == ["x"]


def _serialized_twist():
    """The move list of T(a) on the punctured torus: one flip, then one
    relabeling."""
    tri = curvetwist.build_surface(1, 1)
    enc = curvetwist.parse_twist_word("T(a)", curvetwist.standard_curves(tri))
    doc = curvetwist.encoding_to_jsonable(enc)
    assert [mv["kind"] for mv in doc["moves"]] == ["flip", "relabel"]
    return doc


def _drop(*path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return mutate


def _put(value, *path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize("mutate,field", [
    (_drop("moves", 0, "label"), 'move 0: "label"'),
    (_drop("moves", 1, "target"), 'move 1: "target"'),
    (_put(5, "moves", 0), "move 0 is not an object"),
    (_put("flip", "moves"), '"moves" must be a list'),
    (_put([9, 0], "moves", 1, "slot_map", 0, 1), 'move 1: "slot_map"'),
    (_put([[0, 0]], "moves", 1, "slot_map", 0), 'move 1: "slot_map"'),
    (_drop("moves", 1, "target", "gluing"), '"gluing"'),
    (_drop("moves", 1, "target", "triangles"), '"triangles"'),
    (_put(LONG_DIGITS, "moves", 0, "label"),
     'move 0: "label" is too long: 5000 digits'),
], ids=["flip-without-label", "relabel-without-target", "move-not-object",
        "moves-a-string", "slot-outside-complex", "slot-entry-not-pair",
        "target-without-gluing", "target-without-triangles",
        "label-5000-digits"])
def test_malformed_moves_exit_one_naming_the_move(tmp_path, mutate, field):
    doc = _serialized_twist()
    mutate(doc)
    path = _workspace(tmp_path, maps={"f": doc})
    proc = run_cli("map", "act", path, "f", "a")
    assert_one_line_error(proc, field)
    assert proc.stderr.startswith("error: map 'f': ")


def test_invalid_curve_is_named_in_the_map_error(tmp_path):
    # two parallel copies of a: realizable, so it loads, but no twist curve
    curves = dict(PUNCTURED_TORUS_WS["curves"], a={"weights": ["0", "2", "2"]})
    path = _workspace(tmp_path, curves=curves,
                      maps={"f": {"word": "T(b) * T(a)"}},
                      system={"components": ["b"], "map": "f"})
    proc = run_cli("map", "act", path, "f", "b")
    assert_one_line_error(proc, "map 'f': curve 'a': essentiality test "
                                "expects a single curve")


@pytest.mark.parametrize("weights,reason", [
    (["1", "1", "1"], "triangle 0 has odd weight sum (1, 1, 1)"),
    (["0", "1", "3"], "triangle 0 violates the triangle inequality at "
                      "corner 0: (0, 1, 3)"),
], ids=["parity", "triangle-inequality"])
@pytest.mark.parametrize("argv", [("surface", "info"),
                                  ("curve", "validate", "x")],
                         ids=["surface-info", "curve-validate"])
def test_unrealizable_curves_are_refused_at_load(tmp_path, weights, reason,
                                                 argv):
    """A curve no map uses is checked too, and `curve validate` never
    reports an invalid curve: it cannot load one."""
    curves = dict(PUNCTURED_TORUS_WS["curves"], x={"weights": weights})
    path = _workspace(tmp_path, curves=curves)
    proc = run_cli(*argv[:2], path, *argv[2:])
    assert_one_line_error(proc, "curve 'x': " + reason)
    assert proc.stdout == ""


@pytest.mark.parametrize("weights,field", [
    ([2.5, "1", "1"], "weight 0 must be an integer, not 2.5"),
    (["0", True, "1"], "weight 1 must be an integer, not True"),
    (["0", "1", "1_0"], "weight 2 must be an integer, not '1_0'"),
    (["0", " 1", "1"], "weight 1 must be an integer, not ' 1'"),
    (["0", "+1", "1"], "weight 1 must be an integer, not '+1'"),
    ("011", '"weights" must be a list'),
    (["0", LONG_DIGITS, "1"], "weight 1 is too long: 5000 digits"),
], ids=["float", "bool", "underscore", "space", "plus-sign", "string",
        "5000-digits"])
def test_weights_must_be_integers(tmp_path, weights, field):
    curves = dict(PUNCTURED_TORUS_WS["curves"], a={"weights": weights})
    path = _workspace(tmp_path, curves=curves)
    proc = run_cli("curve", "validate", path, "a")
    assert_one_line_error(proc, "curve 'a': " + field)


@pytest.mark.parametrize("surface", [
    {"genus": True, "punctures": 1},
    {"genus": 1.9, "punctures": 1},
    {"genus": 1, "punctures": "1_0"},
    {"punctures": 1},
], ids=["bool", "float", "underscore", "missing"])
def test_surface_needs_integer_genus_and_punctures(tmp_path, surface):
    path = _workspace(tmp_path, surface=surface)
    assert_one_line_error(run_cli("surface", "info", path),
                          'surface needs integer "genus" and "punctures"')


@pytest.mark.parametrize("word,shown", [
    ("T(b)^1_0", "must be an integer, not '1_0'"),
    ("T(b)^+1", "must be an integer, not '+1'"),
    ("T(b)^１", "must be an integer, not '１'"),
    ("T(b)^", "must be an integer, not ''"),
    ("T(b)^1.0", "must be an integer, not '1.0'"),
    ("T(b)^" + LONG_DIGITS, "is too long: 5000 digits"),
], ids=["underscore", "plus-sign", "fullwidth-digit", "empty", "decimal",
        "5000-digits"])
def test_word_exponents_must_be_integers(tmp_path, word, shown):
    path = _workspace(tmp_path, maps={"f": {"word": "T(a) " + word}})
    proc = run_cli("map", "act", path, "f", "a")
    assert_one_line_error(proc, "map 'f': the exponent of factor 1 " + shown)


@pytest.mark.parametrize("word", [7, ["T(a)", "T(b)"]], ids=["int", "list"])
def test_a_twist_word_must_be_a_string(tmp_path, word):
    path = _workspace(tmp_path, maps={"f": {"word": word}})
    proc = run_cli("surface", "info", path)
    assert_one_line_error(proc, "map 'f': twist word %r is not a string"
                          % (word,))


def test_a_relabel_target_with_sparse_labels_is_refused(tmp_path):
    doc = _serialized_twist()
    target = doc["moves"][1]["target"]
    target["triangles"] = [[5 if lab == 2 else lab for lab in t]
                           for t in target["triangles"]]
    path = _workspace(tmp_path, maps={"f": doc})
    proc = run_cli("map", "act", path, "f", "a")
    assert_one_line_error(proc, 'map \'f\': move 1: "target": edge labels '
                                'must be 0..2, each on exactly two slots')


def test_a_relabel_target_with_an_unglued_slot_is_refused(tmp_path):
    doc = _serialized_twist()
    target = doc["moves"][1]["target"]
    (a, _), *target["gluing"] = target["gluing"]
    path = _workspace(tmp_path, maps={"f": doc})
    proc = run_cli("map", "compose", path, "f")
    assert_one_line_error(proc, 'map \'f\': move 1: "target": slot (%d, %d) '
                                'is unglued' % tuple(a))


@pytest.mark.parametrize("command", [("gamma", "build"),
                                     ("construct", "search")])
def test_curves_parallel_across_the_vertex_are_refused(tmp_path, command):
    """On S(2,0) two separating curves on either side of the vertex are
    parallel in the surface; the system is refused with one line naming
    the pair."""
    path = _workspace(
        tmp_path, surface={"genus": 2, "punctures": 0},
        curves={"sep": {"weights": list("002200022")},
                "sep2": {"weights": list("220002200")}},
        maps={"f": {"word": "T(sep)"}},
        system={"components": ["sep", "sep2"], "map": "f"}, params={})
    assert_one_line_error(run_cli(*command, path),
                          "system is not independent: 'sep' and 'sep2' are "
                          "parallel across the vertex")
