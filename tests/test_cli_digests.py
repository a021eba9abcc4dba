"""The CLI reports stay byte-identical.

Each command runs in process on a scenario file written by the
``scenario`` command, with ``GRADIRA_SEED`` unset, and the sha256 of its
(exit code, stdout, stderr) must equal the digest pinned here.  A change
to any report, verdict, diagnostic or exit code shows up as a digest
mismatch; a deliberate change re-pins the digests of the commands it
touches and says why.

Files whose axioms fail are derived from a scenario file by editing its
JSON, so that the failure texts of ``verify`` are pinned too.
"""

import contextlib
import hashlib
import io
import json

import pytest

from gradira.cli import main

SCENARIOS = {
    "red21": ["reduced-canonical", "--n", "2", "--fields", "1", "--with-extension"],
    "red32": ["reduced-canonical", "--n", "3", "--fields", "2", "--with-extension"],
    "ext21": ["extended-canonical", "--n", "2", "--fields", "1"],
    "ym": ["yang-mills", "--n", "3", "--algebra", "su2"],
    "red21-plain": ["reduced-canonical", "--n", "2", "--fields", "1"],
    "red33": ["reduced-canonical", "--n", "3", "--fields", "3", "--with-extension"],
    # 155,800 generator pairs: the key index and the name sort at scale
    "red81": ["reduced-canonical", "--n", "8", "--fields", "1"],
}


def _tilt(doc):
    """p1_1 d/dx1 added to the first sharp_n value, as in
    ``tests/test_structure.py::_tilted``: skew fails, and integrability
    fails both ways (defect forms outside S^2, and sharps that differ
    from the Schouten bracket)."""
    doc["sharp_n"][0] += " + p1_1 * @/x1"
    return doc


def _rescale(doc):
    """Every S^n generator and sharp_n value times 1 + y1: the generators
    are not closed, so the iota_U d(gen) terms of the defect count."""
    for key in ("sn", "sharp_n"):
        doc[key] = [f"(1 + y1) * ({text})" for text in doc[key]]
    return doc


# derived file -> (source scenario, edit of its JSON document)
DERIVED = {
    "red21-tilted": ("red21-plain", _tilt),
    "red21-tilted-rescaled": ("red21-plain", lambda doc: _rescale(_tilt(doc))),
}

H_RED21 = "H * dX[] - p2_1 * d(y1) ^ dX[2] - p1_1 * d(y1) ^ dX[1]"

# (id, scenario, arguments after the file, digest)
COMMANDS = [
    ("red21-verify", "red21", ["verify"],
     "28ce0c2483da7b85471b6f132c220a198ff9560fbd8ae4cc6c6635a67e07989f"),
    ("red21-verify-samples", "red21", ["verify", "--samples", "3"],
     "ec2d4a9aa8bf48b4a402dcb0580074522115ba021fecd9228b12ca9c7ecdc748"),
    ("red21-tower", "red21", ["tower"],
     "5d7b6c9bd78828b3e4a53e3e6ee90274f9574e1ac8095d8920dafe37c177da4c"),
    ("red21-tower-no-vertical", "red21", ["tower", "--no-vertical"],
     "4d3aafedf77ed7044b2a5cf1945a741d5673971e66a60da69da06d7b15c532ae"),
    ("red21-extend", "red21", ["extend"],
     "d99bf2557b360e8351e92095338e534f3287a05e990afa0d0fac398da4913ee8"),
    ("red21-hamiltonian", "red21", ["hamiltonian"],
     "fb7931946593afb5b1305fd752f1f2225d8f95dc6e7eb0c530bd01188f64f7f2"),
    ("red21-hdw", "red21", ["hdw"],
     "806098cbe6e8c450707e0aa05cc16e6509ccb9693a7b296440fa9533352976d0"),
    ("red21-tower-a3-j1", "red21", ["tower", "-a", "3", "-j", "1"],
     "5f78d4389e247a4065cbcaf56b3dafea9f39dce42ad33e1a43d3db8b8ac16dc5"),
    ("red21-tower-a2-j2", "red21", ["tower", "-a", "2", "-j", "2"],
     "5a33fdac594d93f09fe3763e654b0274ce8fc799ed988b090340340e16fe3f98"),
    ("red21-extend-no-vertical", "red21", ["extend", "--no-vertical"],
     "df8a66e2c3a0f936596b0bc0992a7948a9514b5577b6a831ff5800bbf176c634"),
    ("red21-evolution", "red21", ["evolution"],
     "680f01a7580e7e483c8d43763f02ceae25fa369f0dde44ea86dc29caaa18eb91"),
    ("red21-bracket", "red21",
     ["bracket", "-a", "y1 * dX[1]", "-b", "p1_1 * dX[1] + p2_1 * dX[2]"],
     "f70e8bb55b8134d4d899d281bca89ed5bba77dda2685d686a5877ee9e44b09fb"),
    ("red21-bracket-ext1", "red21", ["bracket", "-a", "y1 * dX[1]", "-b", H_RED21],
     "7e8b555fb3cf8a9471ef8358c636f6526a39841ef6cef39d25b0466361ba2dfd"),
    ("red21-special", "red21", ["special", "-a", "y1"],
     "f85349c385d43ceabc0f476d7cb5c5b21ab853f6e4f261e5606aa8daf2d9d934"),
    ("red21-hamiltonian-zero", "red21", ["hamiltonian", "-H", "0"],
     "289d4c11d53a36fdcd9f0dd6721dc6709b9dae0bc9e678878825b1b7b8c5ae28"),
    ("red21-hamiltonian-wrong-sign", "red21",
     ["hamiltonian", "-H", "H * dX[] + p1_1 * d(y1) ^ dX[1] - p2_1 * d(y1) ^ dX[2]"],
     "289d4c11d53a36fdcd9f0dd6721dc6709b9dae0bc9e678878825b1b7b8c5ae28"),
    ("red21-hamiltonian-not-admitted", "red21",
     ["hamiltonian", "-H", "p1_1 * d(p2_1) ^ dX[1]"],
     "1e5fbe9c149929e6e4cb0a49b9a75ae034235f92532030b186e6c0c1348985d9"),
    ("red32-verify", "red32", ["verify"],
     "a50de374caaf177cd639cfe833aedc70cd185763d03b3e2a96f9152b2c755e7d"),
    ("red32-hamiltonian", "red32", ["hamiltonian"],
     "fb7931946593afb5b1305fd752f1f2225d8f95dc6e7eb0c530bd01188f64f7f2"),
    ("red32-hdw", "red32", ["hdw"],
     "95a5788f5cc3bbef9a15f1f74871004b3184d14f0026cd350b4990a642c134c7"),
    ("red32-tower", "red32", ["tower"],
     "ecf8073b7b7c46309286ce328abc9b96cc12f40b8425419116bbbf99a8e87196"),
    ("red32-extend", "red32", ["extend"],
     "2100154aebfeb91a4d69623530c2b2a295a68e86785d27f4f89741239c327f2f"),
    ("red32-evolution", "red32", ["evolution"],
     "c5e4ec98535fd603e0cec181299e40ad28b03391db814eaa40f63fba01aa3a1a"),
    ("ext21-verify", "ext21", ["verify"],
     "b90baf9a60819964cb37826c2554d2eef681117e8e722fbdb05160e9b01cc999"),
    ("ext21-tower", "ext21", ["tower"],
     "605dd46c6bc0f302d1bb4e3141f9fb46d10b510fdc17845422a8a94e75680833"),
    ("ym-verify", "ym", ["verify"],
     "7abb4a43029e8bbd6b6aa92aed4a1f8ce4bd5acd0b10282acc4931ae487cdd1b"),
    ("ym-hamiltonian", "ym", ["hamiltonian"],
     "fb7931946593afb5b1305fd752f1f2225d8f95dc6e7eb0c530bd01188f64f7f2"),
    ("ym-hdw", "ym", ["hdw"],
     "9284c24cb36a25af2ca128d50de25030685024f0964d24cf4df692292a55faa7"),
    ("ym-tower", "ym", ["tower"],
     "88c83e0d200dd20d1a6df5e60519c863144a3e38b52004b13c427b9dc1230f64"),
    ("ym-extend", "ym", ["extend"],
     "820412d548bde194023d4798544688b82835bdce4a3beeb4fa9c1908c6656a2e"),
    ("ym-evolution", "ym", ["evolution"],
     "c46dbbd39390931b69e9b12792d43baf1fcd83eec90545d04d4b734efb597f3a"),
    ("ym-tower-no-vertical", "ym", ["tower", "--no-vertical"],
     "c378c340c6c081ef059acda9c1c01873fa09166654fd02e68757df5cbc38e783"),
    ("ym-extend-no-vertical", "ym", ["extend", "--no-vertical"],
     "05c03b79804a1bb50f35785fce76dfa83d47b1f0c3c8cf97d0381d9641fef507"),
    ("red32-tower-no-vertical", "red32", ["tower", "--no-vertical"],
     "b7d3cf61fef29e276e79826a5d8a3abdb552952f8f9fcd5f8c4df00e5e40b417"),
    ("red33-tower", "red33", ["tower"],
     "f6ce848b921cf59f8d26b344e32c472c6c969411481b6f6f8b48585150bee48f"),
    ("red81-verify", "red81", ["verify"],
     "9c658173280cec93082677b3091a8b52cdff074f7760e4366aaa42b3ded6b760"),
    ("red21-tilted-verify", "red21-tilted", ["verify"],
     "d019ae092232ab93ab1c17dfb472059cf2c5ebde4ffd3d6c997b77b5a2f56ca9"),
    ("red21-tilted-rescaled-verify", "red21-tilted-rescaled", ["verify"],
     "dd81b7ce6649a50ac80cd30c267439c0b115a66ad68657fa83ac34796ce82d5b"),
]


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err):
    payload = f"{code}\0{out}\0{err}".encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    paths = {}
    for name, args in SCENARIOS.items():
        paths[name] = str(root / f"{name}.json")
        code, _, err = run(["scenario", *args, "--out", paths[name]])
        assert (code, err) == (0, "")
    for name, (source, edit) in DERIVED.items():
        with open(paths[source]) as fh:
            doc = edit(json.load(fh))
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


@pytest.mark.parametrize("scenario, args, expected",
                         [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS])
def test_report_digest(files, monkeypatch, scenario, args, expected):
    monkeypatch.delenv("GRADIRA_SEED", raising=False)
    command, *rest = args
    assert digest(*run([command, "-f", files[scenario], *rest])) == expected
