"""
A fixed corpus of command-line reports, pinned by sha256.

Every report below is JSON with sorted keys and decimal-string weights, so
its bytes are a deterministic function of the workspace and the command.
The digests pin `map compose` (whose reports embed the normal form of an
encoding: its flips, then one closing relabeling written as a slot map and
the source complex), `map act`, `map classify`, `gamma build`, `gamma
orbit`, `gamma chains`, `construct maximalize` (whose report embeds the
completed map's encoding), `construct search` and `curve cut` (whose
report lists the pieces of a cut in order) on the punctured-torus
flagship, on a torus whose map fixes its system, and on two genus-two
workspaces, one with a separating system.  A change to how encodings are
stored or serialized may change the digests of the reports that embed one,
and only those; every other report must stay byte-identical.

    python3 tests/test_report_corpus.py     # print the current digests

prints one `GOLDEN` line per case and marks each digest that differs from
the one pinned here with `# changed`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from curvetwist.cli import main


TORUS = {
    "surface": {"genus": 1, "punctures": 1},
    "curves": {
        "a": {"weights": ["0", "1", "1"]},
        "b": {"weights": ["1", "0", "1"]},
    },
    "maps": {
        "f": {"word": "T(b)"},
        "g": {"word": "T(a) * T(b)^-1"},
        "h": {"word": "T(a)^-2 * T(b)^3"},
        "w": {"word": "T(a)^2 T(b)^-3 T(a)^-1 T(b)"},
        "p": {"word": "T(a)^-2 * T(b)^3 * T(a)^-1 * T(b)^3 * T(a) * T(b)"},
    },
    "system": {"components": ["a"], "map": "f"},
}

GENUS_TWO = {
    "surface": {"genus": 2, "punctures": 0},
    "curves": {
        "c": {"weights": ["0", "0", "1", "0", "0", "0", "0", "1", "0"]},
        "d": {"weights": ["1", "0", "0", "0", "0", "1", "0", "0", "0"]},
        "sep": {"weights": ["0", "0", "2", "2", "0", "0", "0", "2", "2"]},
        "x": {"weights": ["0", "1", "0", "1", "2", "1", "1", "1", "1"]},
    },
    "maps": {
        "f": {"word": "T(x)"},
        "pen": {"word": "T(c) T(d)^-1 T(x)"},
        "neg": {"word": "T(sep)^-1 T(x)^-2"},
        "mt": {"word": "T(c)^2 T(d)^-1 T(sep)"},
    },
    "system": {"components": ["c"], "map": "f"},
}

# the twist about a fixes a: the orbit graph has a self-loop
TORUS_ORBIT = dict(TORUS, maps={"ta": {"word": "T(a)^2"}},
                   system={"components": ["a"], "map": "ta"})

# a separating system: its cut has two pieces, and `construct maximalize`
# completes the first non-pants one, so the report pins the piece order
GENUS_TWO_SEP = dict(GENUS_TWO, system={"components": ["sep"], "map": "f"})

WORKSPACES = {"torus": TORUS, "genus2": GENUS_TWO,
              "torus_orbit": TORUS_ORBIT, "genus2_sep": GENUS_TWO_SEP}

# (workspace, argv after the workspace path)
CASES = [
    ("torus", ["map", "compose", "g"]),
    ("torus", ["map", "compose", "g", "f"]),
    ("torus", ["map", "compose", "h", "w"]),
    ("torus", ["map", "compose", "w", "p"]),
    ("torus", ["map", "act", "h", "a"]),
    ("torus", ["map", "act", "p", "b"]),
    ("torus", ["map", "act", "w", "a"]),
    ("torus", ["map", "classify", "g"]),
    ("torus", ["map", "classify", "h"]),
    ("torus", ["map", "classify", "p"]),
    ("torus", ["construct", "maximalize"]),
    ("torus", ["construct", "search"]),
    ("torus", ["construct", "search", "--k-max", "3"]),
    ("genus2", ["map", "compose", "pen"]),
    ("genus2", ["map", "compose", "neg", "f"]),
    ("genus2", ["map", "act", "neg", "c"]),
    ("genus2", ["map", "act", "pen", "sep"]),
    ("genus2", ["map", "classify", "pen"]),
    ("genus2", ["map", "classify", "mt"]),
    ("genus2", ["construct", "maximalize"]),
    ("genus2", ["construct", "search"]),
    ("torus", ["gamma", "build"]),
    ("torus", ["gamma", "orbit"]),
    ("torus", ["gamma", "chains"]),
    ("genus2", ["gamma", "build"]),
    ("genus2", ["gamma", "orbit"]),
    ("genus2", ["gamma", "chains"]),
    ("torus_orbit", ["gamma", "build"]),
    ("torus_orbit", ["gamma", "orbit"]),
    ("torus_orbit", ["gamma", "chains"]),
    ("torus", ["curve", "cut", "a"]),
    ("genus2", ["curve", "cut", "sep"]),
    ("genus2", ["curve", "cut", "x"]),
    ("genus2_sep", ["construct", "maximalize"]),
]

GOLDEN = {
    'torus:map compose g': '0:10a3fbef7f8914dba6eaa7e1f3fefc10368bd81a337e2a3ec1629422eec65c3e',
    'torus:map compose g f': '0:7d4fc8cfe521cb2bbdb6ac53f8201f82e85e1a934f4ff0ecf3332b191eb46fc1',
    'torus:map compose h w': '0:4c734ebc1851916ea79c3f94d1c1e3236932ecc7897b3a96569f0a5afb995e2f',
    'torus:map compose w p': '0:c38864013af57dff30b43d8a0f3be9884b50f9955949aefa43ef9df74d60ca25',
    'torus:map act h a': '0:eabbe7df5c232a1a598725c861df058770b904f23f19f689d9aeec4f9c60594c',
    'torus:map act p b': '0:0a7ee9bd290f68d285a866ad98984e17221e9e61ec9c07ece1b1ed28fb7af939',
    'torus:map act w a': '0:ce7a0913457d2bb2057e087e13d453e27fb3f37c247ad2f57fa9bda39c1a8c3a',
    'torus:map classify g': '0:11b6ff75ea7c9d96376895e9b2b8a8302b90ee2570d650813fbd996695778edb',
    'torus:map classify h': '0:cceee71a7241ff525c2da723dfee96fa9d1b4756877ffe768c1feae141a5e2dc',
    'torus:map classify p': '0:7cad0eb9626ccc657599505681d51bfe045f9ae3ec4b9a6f7de223de86b210f1',
    'torus:construct maximalize': '0:d2483a8f2cc5412667ccdaac2fe334cb31909c6dc1a3896f2aba3e7f47344b90',
    'torus:construct search': '0:70eba284dbcd06a044f4b522ecdad40cfa92fe0023f1d7c662cd9895c0dcde64',
    'torus:construct search --k-max 3': '3:4dcb5834acd45e03616ff56f3572b78eb7eabf05ac6fb27225d6edd09a4491c0',
    'genus2:map compose pen': '0:5700e334a7450fc84a2d86ec8421c3dffdf376e3fcc4e7d9863a6378579dc596',
    'genus2:map compose neg f': '0:e72a6c115e95efe2303f4d248b5c962c1a0d475da5ff08eebbf5748891eba780',
    'genus2:map act neg c': '0:21807d089abcab2dfb47640ceef7f28dbd2f9860645ed081cd159ab6e3e3233c',
    'genus2:map act pen sep': '0:40733ed587534c0c76b3a7205bc38442067130366728ff76297aec06c35336aa',
    'genus2:map classify pen': '0:1feb5eb79103e9bd24cd3914f854bd8b0883076e21ac5f5dd36c4993f621c260',
    'genus2:map classify mt': '0:793b325cc2fb3730aedf6e71ee9aac4cdf523912597f4be6df9a956399248167',
    'genus2:construct maximalize': '0:e681130a655a46693ef01f2de72298dbee615d30279ec733173b162858af6bf0',
    'genus2:construct search': '0:37fd769e362b257f746f25ff7726beb6505d31beb81f63cb467b7e52912f1a2a',
    'torus:gamma build': '0:a8206a1d868fda54d60ccb9c6b196d223e38650fe4000e6756157ecabbff97b4',
    'torus:gamma orbit': '0:bd677d98cabcacd054386a0ea5a8173cc974540fe8b81e7f1034271acc066d62',
    'torus:gamma chains': '0:2e088c9d14a174cacbc8af7288d53ade176550fccf88d9da5c0962e80a241e15',
    'genus2:gamma build': '0:69d778c4f8b4f0d6f1b3814614ea62cb26168e10c20bc9cead242fcbe23d7200',
    'genus2:gamma orbit': '0:c277fa292ed4b7b3c2e563e90e194004a111ec8b2dd4ad3d6e98002fdf9b0e59',
    'genus2:gamma chains': '0:e18a13b0fa06b3d679e7369a1397f7c8747943642589e46130354ed5ac8dbde3',
    'torus_orbit:gamma build': '0:b4a646046ee31de1c4233151c9cbafe7a34132a74c21d8fc896d9527d64a3bcf',
    'torus_orbit:gamma orbit': '2:3912e4da5154462b76cbb1f6e3cdfce0218eb5f3094d755ed6fddc4c2a1e01f4',
    'torus_orbit:gamma chains': '2:da6bbff3f25cca3f70a07566b30b27e66cc1914fcb1090ee2e57c9265cdf2441',
    'torus:curve cut a': '0:84916532f41cab579b36bd8d6dbf7c63d8e187951a333a4a065a013e505ce5a2',
    'genus2:curve cut sep': '0:66960bf664661a73537c9f6a0a02cfa0b1ec14310891f004572bb177f9897693',
    'genus2:curve cut x': '0:aacb8343e12c8a327fca3c4fc1e992605e68645e23c75e59ec16968dc9daa3e5',
    'genus2_sep:construct maximalize': '0:a3c868f7eafcf59762e52600e4598578d83c31b2fd17cd306cb533c12a980383',
}


def _case_id(case):
    return "%s:%s" % (case[0], " ".join(case[1]))


def run_report(path, argv):
    """(exit code, stdout) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[:2] + [path] + argv[2:])
    return code, out.getvalue()


def digest(code, text):
    return "%d:%s" % (code, hashlib.sha256(text.encode()).hexdigest())


def write_workspaces(root):
    paths = {}
    for name, doc in WORKSPACES.items():
        paths[name] = os.path.join(str(root), name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_workspaces(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_matches_golden(paths, case):
    ws, argv = case
    assert digest(*run_report(paths[ws], argv)) == GOLDEN[_case_id(case)]


def test_corpus_has_one_golden_per_case():
    assert sorted(GOLDEN) == sorted(_case_id(c) for c in CASES)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        found = write_workspaces(tmp)
        for case in CASES:
            got = digest(*run_report(found[case[0]], case[1]))
            print("    %r: %r,%s" % (_case_id(case), got,
                                     "" if got == GOLDEN[_case_id(case)]
                                     else "  # changed"))
