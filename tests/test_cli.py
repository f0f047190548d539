import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pdfill
from pdfill import cli, cyclic_table, filling, finite_table, groups
from pdfill.cli import main
from pdfill.words import word_from_string


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def test_complex_euler(runner):
    result = invoke(runner, ["complex", "Sigma2", "Z", "--euler"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["euler"] == -2
    assert payload["ranks"] == [1, 4, 1]


def test_complex_dualize_free_group(runner):
    result = invoke(runner, ["complex", "F2", "Z", "--dualize"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ranks"] == [0, 2, 1]
    assert payload["differentials"][1] == [["1 - a^-1", "1 - b^-1"]]


def test_complex_twist_klein(runner):
    result = invoke(runner, ["complex", "Klein", "Z", "--twist", "a:-1,b:1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["differentials"][0] == [["1 + a"], ["1 - b"]]


def test_twist_reads_a_generator_past_z(runner):
    # Sigma14 has 28 generators; the 27th prints as g27 and reads back
    result = invoke(runner, ["complex", "Sigma14", "Z", "--twist", "g27:-1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["twist"].endswith(",z:1,g27:-1,g28:1")
    assert payload["differentials"][0][26:] == [["1 + g27"], ["1 - g28"]]


def test_squares_group_prints_geodesic_words(runner):
    # T11b:2 = <a, b | a a b b>.  By hand: the edge boundaries are 1 - a
    # and 1 - b; d/da of a a b b is 1 + a, and d/db is a^2 + a^2 b, where
    # a^2 b = b^-1 since a^2 b^2 = 1.  Each element prints as its reduced
    # geodesic word
    result = invoke(runner, ["complex", "T11b:2", "Z"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["differentials"] == [
        [["1 - a"], ["-b + 1"]],
        [["1 + a", "b^-1 + a^2"]],
    ]
    result = invoke(runner, ["slim", "T11b:2", "--radius", "4"])
    assert result.exit_code == 0
    witness = json.loads(result.output)["witness"]
    # corners lie on the radius-2 sphere, so each word has 2 letters
    assert witness and all(len(word_from_string(word)) == 2 for word in witness)


def test_complex_homology(runner):
    result = invoke(runner, ["complex", "Klein", "Z", "--homology", "Q"])
    payload = json.loads(result.output)
    assert payload["homology"]["dimensions"][1] >= 1


def test_usage_errors_exit_2(runner):
    assert invoke(runner, ["complex", "Nope", "Z"]).exit_code == 2
    assert invoke(runner, ["complex", "F2", "GF9"]).exit_code == 2
    assert invoke(runner, ["complex", "Klein", "Z", "--twist", "a:2,b:1"]).exit_code == 2
    assert invoke(runner, ["complex", "F2", "H", "--twist", "a:1,b:1"]).exit_code == 2
    assert invoke(runner, ["complex", "Klein", "Z/5", "--twist", "a:2,b:1"]).exit_code == 2
    assert invoke(runner, ["complex", "F2", "Z", "--homology", "Z/4"]).exit_code == 2
    # the sweep is serial and takes no worker count
    args = ["fill", "Z^2", "Z", "--radius", "2", "--max-word", "4", "--threads", "1"]
    assert invoke(runner, args).exit_code == 2
    # no command, an unknown one, an abbreviated option, a missing option
    # and a malformed number are refused before any command runs
    fill = ["fill", "Z^2", "Z", "--max-word", "4"]
    for args in ([], ["nope"], fill + ["--rad", "2"], fill, fill + ["--radius", "x"]):
        result = invoke(runner, args)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr
    # --help lists the commands, and each option of a command
    commands = ["complex", "fill", "folner", "slim", "constants", "transfer"]
    options = ["--radius", "--max-word", "--coeff-bound", "--csv", "--output"]
    for args, names in ((["--help"], commands), (["fill", "--help"], options)):
        result = invoke(runner, args)
        assert result.exit_code == 0
        assert all(name in result.stdout for name in names)


def test_homology_over_a_large_prime_field(runner):
    # 2^61 - 1 is decided by Miller-Rabin at once, where dividing by every
    # d up to its square root took about 1.5e9 steps
    started = time.perf_counter()
    result = invoke(runner, ["complex", "F2", "Z", "--homology", "Z/2305843009213693951"])
    assert result.exit_code == 0
    assert time.perf_counter() - started < 1
    assert json.loads(result.output)["homology"]["field"] == "Z/2305843009213693951"
    # from the least strong pseudoprime to the first 12 prime bases on, no
    # modulus is decided
    args = ["complex", "F2", "Z", "--homology", "Z/318665857834031151167461"]
    assert invoke(runner, args).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["transfer", "--kappa", kappa, "--norm-x", "1", "--norm-z", "1", "--norm-h", "1"]
        for kappa in ("1/0", "abc", "1/2/3")
    ]
    + [
        ["folner", "Z^2", "--family", "boxes:3", "--threshold", threshold]
        for threshold in ("1/0", "x", "1/2/3")
    ]
    + [
        ["complex", "Klein", "Q", "--twist", "a:1/0,b:1"],
        ["slim", "Z^2", "--radius", "2", "--samples", "-1"],
        ["fill", "Z^2", "Z", "--radius", "2", "--max-word", "-3"],
    ]
    # a threshold outside (0, 1), whatever verdict the family would reach
    + [
        ["folner", "Z^2", "--family", "boxes:3", "--threshold", "5"],
        ["folner", "Z^2", "--family", "boxes:3", "--threshold", "0"],
        ["folner", "F2", "--family", "connected:4", "--threshold", "7"],
    ]
    # a zero bound is refused before the window is built, whether or not
    # the window holds a cycle to fill
    + [
        ["fill", "Z^2", "Z", "--radius", radius, "--max-word", cap, "--coeff-bound", "0"]
        for radius, cap in (("1", "2"), ("3", "4"))
    ],
    ids=" ".join,
)
def test_bad_numbers_exit_2(runner, args):
    result = invoke(runner, args)
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


def test_fill_rejects_rings_other_than_z(runner):
    for ring in ("Q", "Z/5", "H"):
        args = ["fill", "Z^2", ring, "--radius", "2", "--max-word", "4"]
        result = invoke(runner, args)
        assert result.exit_code == 2
        assert "over Z only" in result.output
    args = ["fill", "Z^2", "GF9", "--radius", "2", "--max-word", "4"]
    assert invoke(runner, args).exit_code == 2


def test_constants_without_presentation_exit_2(runner, monkeypatch):
    monkeypatch.setattr(cli, "make_group", lambda spec: finite_table(cyclic_table(6)))
    result = invoke(runner, ["constants", "C6", "--kappa", "1"])
    assert result.exit_code == 2
    assert "no presentation" in result.output


@pytest.mark.parametrize("budget", ["abc", "0", "-5"])
def test_malformed_budget_exits_2(runner, budget):
    args = ["fill", "Z^2", "Z", "--radius", "2", "--max-word", "4"]
    result = invoke(runner, args, env={"PDFILL_BUDGET": budget})
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "PDFILL_BUDGET must be a positive integer" in result.stderr


def test_twist_naming_a_generator_twice_exits_2(runner):
    # the later value used to overwrite the earlier one without a word
    result = invoke(runner, ["complex", "Klein", "Z", "--twist", "a:-1,a:1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "named twice" in result.stderr


def test_twist_without_presentation_exit_2(runner, monkeypatch):
    # the complex is refused before the character is checked against it
    monkeypatch.setattr(cli, "make_group", lambda spec: finite_table(cyclic_table(6)))
    result = invoke(runner, ["complex", "C6", "Z", "--twist", "a:1"])
    assert result.exit_code == 2
    assert "no presentation" in result.output


def test_budget_errors_exit_3(runner):
    result = invoke(
        runner,
        ["fill", "Z^2", "Z", "--radius", "6", "--max-word", "4"],
        env={"PDFILL_BUDGET": "10"},
    )
    assert result.exit_code == 3
    result = invoke(runner, ["folner", "F2", "--family", "connected:13"])
    assert result.exit_code == 3


def test_closed_walk_budget_exit_3(runner):
    # the 85-vertex window fits the budget of 100, but its 1,978 distinct
    # cycles do not; nothing is printed before the error
    result = invoke(
        runner,
        ["fill", "Z^2", "Z", "--radius", "6", "--max-word", "10"],
        env={"PDFILL_BUDGET": "100"},
    )
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "exceeded budget 100 distinct cycles" in result.stderr


def test_walk_visit_bound_exit_3(runner):
    # the 13-vertex window and its few hundred distinct cycles fit a
    # budget of 5,000 at both caps; the search makes 24,729 visits at cap
    # 16 and 221,401 at cap 20, against a bound of 25 x 5,000
    env = {"PDFILL_BUDGET": "5000"}
    args = ["fill", "Z^2", "Z", "--radius", "2", "--max-word"]
    assert invoke(runner, args + ["16"], env=env).exit_code == 0
    result = invoke(runner, args + ["20"], env=env)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "exceeded 125000 visits" in result.stderr


def test_grown_set_bound_exit_3(runner):
    # the Z^3 balls of radius 6 and 8 (377 and 833 elements) fit a budget
    # of 1,000; connected:7 grows 23,952 sets and connected:9 1,491,770,
    # against a bound of 25 x 1,000
    env = {"PDFILL_BUDGET": "1000"}
    assert invoke(runner, ["folner", "Z^3", "--family", "connected:7"], env=env).exit_code == 0
    result = invoke(runner, ["folner", "Z^3", "--family", "connected:9"], env=env)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "exceeded 25000 grown sets" in result.stderr


def test_box_element_bound_exit_3(runner):
    # boxes:40 on Z^3 lists 672,400 elements, boxes:2 nine, against a
    # bound of 25 x 10; a malformed budget is read by the box family too
    env = {"PDFILL_BUDGET": "10"}
    assert invoke(runner, ["folner", "Z^3", "--family", "boxes:2"], env=env).exit_code == 0
    result = invoke(runner, ["folner", "Z^3", "--family", "boxes:40"], env=env)
    assert (result.exit_code, result.stdout) == (3, "")
    assert "boxes up to side 40 exceeded 250 elements" in result.stderr
    result = invoke(runner, ["folner", "Z^2", "--family", "boxes:3"], env={"PDFILL_BUDGET": "abc"})
    assert (result.exit_code, result.stdout) == (2, "")
    assert "PDFILL_BUDGET must be a positive integer" in result.stderr


def test_word_table_budget_exit_3(runner):
    # the radius-2 ball of T11b:2 has 13 elements, but the distances
    # between its corners need the word table to radius 4, 41 entries
    args = ["slim", "T11b:2", "--radius", "4"]
    result = invoke(runner, args, env={"PDFILL_BUDGET": "20"})
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == "budget exceeded: word table of T11b:2 exceeded budget 20 at radius 3\n"
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "d7a841affe8193ca13c00a9db45f6279237f4cc2a055ef129795a4a67de4e6f1"
    )


def test_conjugate_table_budget_exit_3(runner):
    # Sigma30's relator has 120 letters, so its conjugate table 28,800,
    # past 25 x 1,000; Sigma8's has 2,048
    env = {"PDFILL_BUDGET": "1000"}
    result = invoke(runner, ["complex", "Sigma30", "Z", "--euler"], env=env)
    assert (result.exit_code, result.stdout) == (3, "")
    assert "conjugate table of 28800 letters exceeded 25000" in result.stderr
    assert invoke(runner, ["complex", "Sigma8", "Z", "--euler"], env=env).exit_code == 0
    # a Dehn group reads the budget as it is built
    result = invoke(runner, ["constants", "Sigma2", "--kappa", "1"], env={"PDFILL_BUDGET": "x"})
    assert (result.exit_code, result.stdout) == (2, "")
    assert "PDFILL_BUDGET must be a positive integer" in result.stderr


def test_filling_search_bound_exit_3(runner, monkeypatch):
    # Z^3 windows keep a core, which is searched; plane windows never are
    monkeypatch.setattr(filling, "MAX_SEARCH_NODES", 2)
    args = ["fill", "Z^3", "Z", "--radius", "3", "--max-word", "4"]
    result = invoke(runner, args)
    assert result.exit_code == 3
    assert "filling search exceeded 2 nodes" in result.output


def test_fill_report(runner):
    result = invoke(runner, ["fill", "Z^2", "Z", "--radius", "3", "--max-word", "4"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["max_ratio"] == "1/4"
    assert payload["corpus_size"] == 8
    assert all(entry["status"] == "filled" for entry in payload["per_cycle"])


def test_fill_empty_corpus(runner):
    result = invoke(runner, ["fill", "F2", "Z", "--radius", "3", "--max-word", "6"])
    payload = json.loads(result.output)
    assert payload["corpus_size"] == 0
    assert payload["kappa_hat"] == 0


def test_fill_csv(runner):
    result = invoke(
        runner, ["fill", "Z^2", "Z", "--radius", "3", "--max-word", "4", "--csv"]
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "word,word_length,cycle_norm,filler_norm,ratio,optimal"
    assert len(lines) == 9


def test_folner_report_and_csv(runner):
    result = invoke(runner, ["folner", "Z^2", "--family", "boxes:20"])
    payload = json.loads(result.output)
    assert payload["verdict"] == "ratio-vanishing"
    result = invoke(runner, ["folner", "F2", "--family", "connected:6", "--csv"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "set_size,ratio"
    assert len(lines) == 7


def test_folner_klein_balls(runner):
    result = invoke(runner, ["folner", "Klein", "--family", "balls:6"])
    payload = json.loads(result.output)
    ratios = payload["series"]
    assert len(ratios) == 7


def test_slim_report_and_series(runner):
    result = invoke(runner, ["slim", "F2", "--radius", "5"])
    payload = json.loads(result.output)
    assert payload["delta_hat"] == 0
    result = invoke(runner, ["slim", "Z^2", "--radius", "4", "--csv"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "radius,delta_hat"
    assert lines[-1] == "4,2"


@pytest.mark.parametrize("spec, radius", [("Sigma2", 5), ("Z^3", 6), ("Klein", 0)])
def test_slim_series_sweeps_each_sphere_once(runner, monkeypatch, spec, radius):
    # a sweep reads only the sphere at half its radius, so radii 2k and
    # 2k + 1 share one sweep; each row is still that radius's delta_hat
    deltas = [
        json.loads(invoke(runner, ["slim", spec, "--radius", str(r)]).output)["delta_hat"]
        for r in range(radius + 1)
    ]
    calls = []
    real = cli.slimness_sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "slimness_sweep", counting)
    result = invoke(runner, ["slim", spec, "--radius", str(radius), "--csv"])
    lines = result.output.strip().splitlines()
    assert lines == ["radius,delta_hat", *(f"{r},{d}" for r, d in enumerate(deltas))]
    assert len(calls) == radius // 2 + 1


@pytest.mark.parametrize("csv", [[], ["--csv"]])
def test_slim_rejects_a_negative_radius(runner, csv):
    result = invoke(runner, ["slim", "Z^2", "--radius", "-1", *csv])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: radius must be >= 0\n"


def test_constants(runner):
    result = invoke(runner, ["constants", "Sigma2", "--kappa", "1"])
    payload = json.loads(result.output)
    assert (payload["N"], payload["k"], payload["m"]) == (8, 65, 8)


def test_transfer(runner):
    result = invoke(
        runner,
        ["transfer", "--kappa", "2", "--norm-x", "3", "--norm-z", "1", "--norm-h", "4"],
    )
    assert json.loads(result.output)["constant"] == 10
    result = invoke(
        runner,
        ["transfer", "--kappa", "1/2", "--norm-x", "3", "--norm-z", "2", "--norm-h", "1"],
    )
    assert json.loads(result.output)["constant"] == 4


def test_output_file(runner, tmp_path):
    target = tmp_path / "out.json"
    result = invoke(
        runner, ["constants", "Klein", "--kappa", "1", "--output", str(target)]
    )
    assert result.exit_code == 0
    assert json.loads(target.read_text())["N"] == 4


@pytest.mark.parametrize("args", [
    ["transfer", "--kappa", "1", "--norm-x", "1", "--norm-z", "1", "--norm-h", "1"],
    ["folner", "Z^2", "--family", "boxes:3", "--csv"],
], ids=["json", "csv"])
@pytest.mark.parametrize("target", [".", "missing/out.txt"], ids=["directory", "missing"])
def test_an_output_that_cannot_be_written_exits_2(runner, tmp_path, args, target):
    output = str(tmp_path / target)
    result = invoke(runner, args + ["--output", output])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: cannot write {output}: ")
    assert result.stderr.count("\n") == 1


COMMANDS = [
    ["complex", "Sigma2", "Z", "--euler", "--homology", "Q"],
    ["complex", "Klein", "Z", "--dualize", "--twist", "a:-1,b:1"],
    ["fill", "Z^2", "Z", "--radius", "4", "--max-word", "8"],
    ["folner", "F2", "--family", "connected:7"],
    ["folner", "Z^2", "--family", "boxes:12", "--csv"],
    ["slim", "Z^2", "--radius", "4", "--seed", "0"],
    ["constants", "Sigma2", "--kappa", "2"],
    ["transfer", "--kappa", "3/2", "--norm-x", "2", "--norm-z", "2", "--norm-h", "1"],
]


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0] + ":" + "-".join(a[1:3]))
def test_byte_identical_reruns(runner, args):
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


# sha256 of stdout: a refactor of the fill, folner or slim layers must
# leave these bytes unchanged
GOLDEN_STDOUT = [
    (["fill", "Z^2", "Z", "--radius", "6", "--max-word", "10"],
     "ba375924703bae7ca15c7c0e14935e2b12a6ebaf2c9266a0e0a37a66c25761c1"),
    (["fill", "Sigma2", "Z", "--radius", "4", "--max-word", "8"],
     "4120023c5cc2b6796980f79f46fcdce310f09df8d6469f2182a981aa461a349a"),
    (["fill", "Klein", "Z", "--radius", "4", "--max-word", "8"],
     "1595faff3dd1ebaec7e6081e26950d7305fb0afd5d75163fbc698e55acf32d1b"),
    (["folner", "Sigma2", "--family", "connected:5"],
     "b552a6ee866399d64543636d39251d6de2d973be0d389081f78baf53e11bb864"),
    (["folner", "F2", "--family", "connected:7"],
     "d31d701a0cb3dbb18e7be271284edbe759e52779b97050087510814b22052a39"),
    (["slim", "Sigma2", "--radius", "4", "--samples", "2000", "--seed", "1"],
     "02110bb5099d4a4109f6c9e6c8ececc6191132a23eeb89b5d3ce196449f0c312"),
    (["slim", "T11b:3", "--radius", "4"],
     "326e44422e8bb8a96582c9ec72fd8ed786c9a617ebebddfbf825cdd20845f907"),
    (["slim", "Z^2", "--radius", "6"],
     "83353236487fe79c971156aa11499e457b1c62f8fa8bc65e420d438869ac2568"),
    (["slim", "Klein", "--radius", "6"],
     "5a8d2e986ee14393d0359147778514471b0165d1fe441711b1c2157bf8e496b2"),
    (["slim", "F2", "--radius", "4"],
     "4faf81938a724a3910739d2040b9aa90d09dcfe418d87251cbf41f2e8b08f35e"),
    (["slim", "Sigma2", "--radius", "6", "--samples", "300", "--seed", "5"],
     "541332549eeb7f3b7d7c8a7ad3e2f60b041ef4980fbfccccf89631f815a00674"),
]
# fill commands pinned with the collapse-first solver: the large plane
# window, and Z^3, the one builtin window that keeps a core to search;
# then the surface windows pinned before the ball grew the step table.
# Their ids spell out the whole command, since the first three words of
# the plane command repeat an entry above.
GOLDEN_FILL_STDOUT = [
    (["fill", "Z^2", "Z", "--radius", "12", "--max-word", "12"],
     "55b8b06651a155b461344b4eb809d8d6a5052a05f850ae4dc8eee8ad768c1365"),
    (["fill", "Z^3", "Z", "--radius", "3", "--max-word", "8"],
     "6648cebd3e8105b31a93d480f38a6168606cb40f51813ee28ac2cffdb1375bb8"),
    (["fill", "Z^3", "Z", "--radius", "3", "--max-word", "8", "--coeff-bound", "2"],
     "13c31bf34f7042ca19c91111fda04adcf3b0f74a53b6cd11214c5e9fe4c903fc"),
    (["fill", "Sigma2", "Z", "--radius", "5", "--max-word", "8"],
     "c7984c6a25a48759cc1d2af45e672abd7cdacf377b9d6df080443fdee3a00257"),
    (["fill", "T11b:3", "Z", "--radius", "4", "--max-word", "8"],
     "2ab6e2653ce0c94297d80b072010f8eccfab8cce33ecb07f8b6320ef831a2bee"),
]
# the folner-tree benchmark command and a second lattice, pinned before
# the connected-set enumeration stopped growing its last level; their ids
# spell out the whole command too, as "folner:F2---family" is taken
GOLDEN_FOLNER_STDOUT = [
    (["folner", "F2", "--family", "connected:9"],
     "6238475c080c5940f3311dcff880c3fcb1e9b1cba71e1627f020488516a0fcb8"),
    (["folner", "Z^3", "--family", "connected:6"],
     "de0e5fd8697983fe2a50db36c0473f147b00b87123931744756951f9ad3240e8"),
]
# a tree of higher degree and a group with cycles of length 6, pinned
# before the enumeration counted its last two levels
GOLDEN_CONNECTED_STDOUT = [
    (["folner", "F3", "--family", "connected:7"],
     "c298e486c66cc91cae017ce971e461683a0ad705ec2a54a2eee84a757ea9e03a"),
    (["folner", "T11b:3", "--family", "connected:7"],
     "7688be111acb45d40f14ceff4d23cd4ccaeea97750a88035782e7f52be7474cb"),
]

# the ball and box families and the corridor constants, pinned before
# the folner ratio series and the constants were each stated once
GOLDEN_FAMILY_STDOUT = [
    (["folner", "Klein", "--family", "balls:6"],
     "0a383b15a2333b1c10762029b00c224ce192fc06853afb1849650048bfd24766"),
    (["folner", "Sigma2", "--family", "balls:4"],
     "583218bf6852eeede524f1c5164ad2013be39fee0eaac580a9ece98f71a3982f"),
    (["folner", "T11b:2", "--family", "balls:5"],
     "1707137f6afe1d513a8be1f5cbfa6db08cf84b83a27bed05b17220a35be3d22b"),
    (["folner", "Z^3", "--family", "boxes:8"],
     "35ff728cb3f98962589c17332c7c56242b6fae74751e73eab4815a02a20692a1"),
    (["folner", "Z^2", "--family", "boxes:20"],
     "cf2a45d5377ab5cb2b11b1ec7b4357f08592ce33ebee5bc47a1cc968bcfac1dd"),
    (["constants", "Sigma2", "--kappa", "1"],
     "b6f53eda1b65c264b5391ee197561fd16b91b28220ef7c1f816db2d6a65900c6"),
    (["constants", "T11b:3", "--kappa", "2"],
     "f7091cd6e16e994825b4dc85aadb4e3cc4c97ef67bf86585687c663f0dc64613"),
]
# every triangle of the Sigma2 radius-6 window, pinned before the sweep
# pruned what cannot raise its maximum
GOLDEN_SLIM_STDOUT = [
    (["slim", "Sigma2", "--radius", "6"],
     "6efdd12112afbb1d397fddf640340c4fc1af6bb20c7376fdb04124ab33f21aa6"),
]
# complex commands over every ring kind, pinned before each ring value's
# payload carried its own arithmetic: H conjugation under --dualize,
# Q and Z/p homology, residue twists and a fractional character
GOLDEN_COMPLEX_STDOUT = [
    (["complex", "Sigma2", "H", "--dualize"],
     "152358ac6a6157155c98f34b34d22be700d9e663a8165f1303622f6a444a2d3e"),
    (["complex", "Klein", "Q", "--twist", "a:-1", "--euler", "--homology", "Q"],
     "71c840fc7b7ace038ac3ae9b3b9709e3c4e43063a20fc3253ead5147b0faa125"),
    (["complex", "Sigma2", "Z/7", "--twist", "a:3,c:5", "--homology", "Z/7"],
     "00050e7d8aa137ee9e4589aea12cea07008e9fa0f16daa1c2228aa281e9017cf"),
    (["complex", "T11b:3", "Z/4", "--dualize"],
     "3124af9f09a1f01f443f1077f3027d01041383408d91775ef3403dcbdc3bdf74"),
    (["complex", "Klein", "Z/2", "--homology", "Z/2"],
     "78fdb67f2a55465b7c4e456f5caaeae7a3c20255eb489cd4cea2017aff15740b"),
    (["complex", "T11b:2", "H", "--dualize", "--euler"],
     "46c328306d47278068f5d8295a82c66c441592b0a6b3cf24c6a080bcaf7c7212"),
    (["complex", "Klein", "Q", "--twist", "a:-1/1,b:3/2"],
     "139dc1ac0f82f78fd84b2ece18edfd777db9314bf307511ba88eefbe27ba8d51"),
]
# slim windows of a rank-3 lattice and of twisted-pair images, pinned
# while each sphere was sorted before the next one grew from it; their
# witnesses follow that sphere order, which the ball now reaches by one
# sort at the end
GOLDEN_SORTED_BALL_STDOUT = [
    (["slim", "Z^3", "--radius", "6"],
     "a885388482a7c2fda8583942151baba31c13843e60487e47b5696845001e96e5"),
    (["slim", "T11b:2", "--radius", "6"],
     "f343543130973a0591c44ed081d0491a5ce2ba76fab2d0c8a98b781f8ad967aa"),
]
# fill windows with many letter automorphisms (Z^3 has 48, Z^4 384) and
# a twisted one with 4, pinned while the sweep still solved every cycle
# rather than one per symmetry orbit
GOLDEN_ORBIT_STDOUT = [
    (["fill", "Z^3", "Z", "--radius", "4", "--max-word", "8"],
     "468ddf003ca03a19258dfbc9d1b524e169e13b1f90e1b038a0fbb7d054a42ea0"),
    (["fill", "Z^3", "Z", "--radius", "4", "--max-word", "8", "--coeff-bound", "2"],
     "497f9ba993c3d3b5134bd506d2d86eb9674edfa898bf4f6b588ec58e920c7875"),
    (["fill", "Z^4", "Z", "--radius", "3", "--max-word", "6"],
     "88b0893c5bacdc7bda6356741655a782fe35b46e23a801de5628a3c79fd5112b"),
    (["fill", "Klein", "Z", "--radius", "6", "--max-word", "10"],
     "7989490e2281be8a0c802ae0dd441d15882f40035b8d982698465ae8d7f3d3b0"),
]
WHOLE_COMMAND_GOLDEN = (
    GOLDEN_FILL_STDOUT
    + GOLDEN_FOLNER_STDOUT
    + GOLDEN_CONNECTED_STDOUT
    + GOLDEN_FAMILY_STDOUT
    + GOLDEN_SLIM_STDOUT
    + GOLDEN_COMPLEX_STDOUT
    + GOLDEN_SORTED_BALL_STDOUT
    + GOLDEN_ORBIT_STDOUT
)


@pytest.mark.parametrize(
    "args, digest",
    GOLDEN_STDOUT + WHOLE_COMMAND_GOLDEN,
    ids=[a[0] + ":" + "-".join(a[1:3]) for a, _ in GOLDEN_STDOUT]
    + [" ".join(a) for a, _ in WHOLE_COMMAND_GOLDEN],
)
def test_golden_stdout(runner, args, digest):
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_bounded_canonical_cache_keeps_fill_stdout(runner, monkeypatch):
    # a cache emptied every 4 words must still give the pinned stdout.
    # The ball extends most words with no cache read: only its 16 other
    # products and the oracle's 4 generator inverses reach the cache.
    # Products and canonical forms fill the cache only on a miss, so the
    # miss path is the one recorded.
    limit = 4
    sizes = []
    closures = [0]
    canonical_miss = groups.DehnOracle._canonical_miss
    swap_closure = groups.DehnOracle._swap_closure

    def recording(self, word):
        result = canonical_miss(self, word)
        sizes.append(len(self._canonical_cache))
        return result

    def recording_closure(self, word):
        seen, shorter = swap_closure(self, word)
        if seen is not None:
            closures[0] = max(closures[0], len(seen))
        return seen, shorter

    monkeypatch.setattr(groups, "CANONICAL_CACHE_LIMIT", limit)
    monkeypatch.setattr(groups.DehnOracle, "_canonical_miss", recording)
    monkeypatch.setattr(groups.DehnOracle, "_swap_closure", recording_closure)
    args = ["fill", "Sigma2", "Z", "--radius", "4", "--max-word", "8"]
    result = invoke(runner, args)
    assert result.exit_code == 0
    digest = dict((tuple(a), d) for a, d in GOLDEN_STDOUT)[tuple(args)]
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
    assert sum(1 for a, b in zip(sizes, sizes[1:]) if b < a) > 1
    assert max(sizes) <= limit + closures[0]


def checkout_env(**extra):
    """os.environ updated by extra, with this checkout's src/ first on
    PYTHONPATH."""
    src = str(Path(pdfill.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}


def run_python(code, *args):
    """stdout of a fresh interpreter running code, with this checkout's src/
    first on PYTHONPATH."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_console_script_path():
    # ``python -m pdfill.cli`` calls main() with no arguments, as the
    # console script does, and exits with its code; CliRunner never does
    command = [sys.executable, "-m", "pdfill.cli"]

    def run(args, **env):
        return subprocess.run(
            command + args, capture_output=True, env=checkout_env(**env), timeout=120
        )

    args, digest = GOLDEN_STDOUT[0]
    result = run(args)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest
    result = run(["fill", "Nope", "Z", "--radius", "2", "--max-word", "4"])
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: ")
    result = run(["fill", "Z^2", "Z", "--radius", "3", "--max-word", "6"], PDFILL_BUDGET="10")
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr.startswith(b"budget exceeded: ")
    # a reader that stops early (pdfill ... | head) ends the command with
    # exit 1 and nothing on stderr; the 0.4 MB of JSON overfills the pipe
    process = subprocess.Popen(
        command + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env()
    )
    process.stdout.close()
    assert process.stderr.read() == b""
    assert process.wait(timeout=120) == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["transfer", "--kappa", "-1/2", "--norm-x", "1", "--norm-z", "1", "--norm-h", "1"],
            "error: transfer constant inputs must be non-negative\n",
        ),
        (
            ["folner", "Z^2", "--family", "boxes:3", "--threshold", "-1/10"],
            "error: threshold must lie strictly between 0 and 1, got -1/10\n",
        ),
    ],
    ids=["kappa", "threshold"],
)
def test_an_option_value_may_start_with_a_dash(args, message):
    # the token after an option that takes a value is its value, so these
    # reach the domain check rather than argparse's "expected one argument"
    result = subprocess.run(
        [sys.executable, "-m", "pdfill.cli", *args],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)


def test_an_output_path_may_start_with_a_dash(tmp_path):
    args = ["transfer", "--kappa", "3/2", "--norm-x", "2", "--norm-z", "1", "--norm-h", "1",
            "--output", "-x.json"]
    result = subprocess.run(
        [sys.executable, "-m", "pdfill.cli", *args],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == '{\n  "constant": 4\n}\n'
    assert (tmp_path / "-x.json").read_text() == result.stdout


# numpy and scipy are test dependencies only (the reference boundary
# matrices in tests/boundary_matrices.py); no command may import them
NO_NUMPY_PROBE = """
import contextlib, io, sys
import pdfill, pdfill.cli
commands = [
    ["fill", "Z^2", "Z", "--radius", "3", "--max-word", "6"],
    ["slim", "Z^2", "--radius", "4"],
    ["folner", "F2", "--family", "connected:4"],
    ["complex", "Sigma2", "Z", "--euler", "--homology", "Q"],
    ["constants", "Sigma2", "--kappa", "1"],
    ["transfer", "--kappa", "1", "--norm-x", "1", "--norm-z", "1", "--norm-h", "1"],
]
for args in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        pdfill.cli.main(args, standalone_mode=False)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_commands_load_no_numpy_or_scipy():
    assert run_python(NO_NUMPY_PROBE).strip() == "[]"


# each command imports only its own layer: the benchmark's set-up sample
# (import pdfill.cli, build the group) loads none of these, and a command
# loads none but its own.  None loads click, which is a test dependency
# only (the CLI parses with argparse), nor dataclasses and the inspect
# module behind it, which would cost every command's start-up several
# milliseconds.
LAYERS = {"complexes", "filling", "folner", "group_ring", "rings", "slimness"}
UNWANTED = ("click", "dataclasses", "inspect")
LOADED_LAYERS_PROBE = """
import contextlib, io, sys
import pdfill.cli
from pdfill.groups import make_group
make_group("Sigma2")
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        pdfill.cli.main(sys.argv[1:], standalone_mode=False)
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("pdfill."))))
print(" ".join(m for m in %r if m in sys.modules))
""" % (UNWANTED,)


@pytest.mark.parametrize(
    "args, layers",
    [
        ([], set()),
        (["slim", "Sigma2", "--radius", "2", "--samples", "10"], {"slimness"}),
        (["fill", "Z^2", "Z", "--radius", "2", "--max-word", "4"], {"filling", "rings"}),
        (["folner", "F2", "--family", "connected:4"], {"folner", "rings"}),
        (["complex", "Klein", "Z", "--homology", "Q"], {"complexes", "group_ring", "rings"}),
    ],
    ids=["set-up", "slim", "fill", "folner", "complex"],
)
def test_a_command_loads_only_its_own_layer(args, layers):
    modules, unwanted = run_python(LOADED_LAYERS_PROBE, *args).split("\n")[:2]
    loaded = set(modules.split())
    assert {"cli", "errors", "groups"} <= loaded
    assert loaded & LAYERS == layers
    assert unwanted == ""


# the package's exports, as listed when it imported every module eagerly
PACKAGE_EXPORTS = [
    "BudgetError", "CayleyBallComplex", "ChainComplex", "Character", "FillingResult",
    "FolnerReport", "GroupMismatchError", "GroupOracle", "GroupRingElement",
    "GroupRingMatrix", "INTEGERS", "InvalidCharacterError", "InvariantError",
    "NoFillingError", "NotACycleError", "NotAFieldError", "OneCycle",
    "OutOfWindowError", "PdfillError", "Presentation", "QUATERNIONS", "RATIONALS",
    "Ring", "RingMismatchError", "RingValue", "SlimnessConstants", "SlimnessReport",
    "SpecParseError", "SweepReport", "UnsupportedTwistError", "all_geodesics", "ball",
    "boundary_differential", "build_ball_complex", "builtin_group_specs", "complexes",
    "cyclic_table", "errors", "filling", "finite_table", "folner", "folner_boundary",
    "folner_sweep", "fox_derivatives_all", "fox_jacobian", "frac_str", "free_abelian",
    "free_group", "group_ring", "groups", "isoperimetric_sweep", "klein_bottle",
    "lex_geodesic", "make_group", "minimal_filling", "nonorientable_type",
    "orientable_type", "parse_element", "parse_ring", "presentation_complex",
    "residue_ring", "rings", "slimness", "slimness_constants", "slimness_sweep",
    "surface_group", "transfer_constant", "triangle_slimness", "verify_filling_bound",
    "word_cycle", "word_from_string", "word_to_string", "words"
]


def test_package_exports_resolve_on_first_use():
    code = (
        "import json, pdfill; "
        "names = sorted(pdfill.__all__); "
        "print(json.dumps([names, [n for n in names if getattr(pdfill, n, None) is None]]))"
    )
    names, unresolved = json.loads(run_python(code))
    assert names == PACKAGE_EXPORTS
    assert unresolved == []


# the JSON renderer, against json.dumps(indent=2) as the oracle
SEAM = '},\n      {'
TEXT = st.text() | st.sampled_from([SEAM, '"', '\\"},', "}],\n  [", "é", "☃", "\U0001d11e"])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
FLAT_DICTS = st.lists(st.dictionaries(TEXT, SCALARS, min_size=1, max_size=4), min_size=1, max_size=5)
PAIRS = st.lists(st.tuples(st.integers(), TEXT) | st.lists(SCALARS, min_size=2, max_size=2), max_size=5)
JSON_TREES = st.recursive(
    SCALARS | FLAT_DICTS | PAIRS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=30,
)


def emitted_json(payload):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit_json(payload, None)
    return out.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_TREES)
def test_json_renderer_matches_indented_dumps(value):
    assert emitted_json(value) == json.dumps(value, indent=2) + "\n"


def test_json_renderer_keeps_the_fill_payload_and_scalar_keys():
    payload = filling.isoperimetric_sweep(groups.make_group("Z^2"), 6, 10).to_json_dict()
    text = emitted_json(payload)
    assert len(text) == 397_270
    assert text == json.dumps(payload, indent=2) + "\n"
    keyed = {1: [{2.5: None}], True: {None: [()]}, "s": {0: []}}
    assert emitted_json(keyed) == json.dumps(keyed, indent=2) + "\n"
    with pytest.raises(TypeError, match="keys must be str"):
        emitted_json({(1,): [1, [2]]})
