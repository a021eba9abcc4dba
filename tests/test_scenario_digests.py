"""The built-in scenarios stay byte-identical.

For each builder case the sha256 of one JSON text must equal the digest
pinned here.  The text holds ``dump_scenario`` of the scenario (sorted
keys), the rendered generators and sharp values of every tower level, and
the labelled ``hamiltonian_generators``.  For each extension case it is
``dump_extension`` of ``canonical_extension_table``.  A change to a chart
layout, a generator, a sharp value, a Hamiltonian or a table entry shows up
as a digest mismatch.
"""

import hashlib
import json

import pytest

from gradira.render import render_form, render_mv
from gradira.scenarios import (canonical_extension_table, extended_canonical,
                               reduced_canonical, yang_mills)
from gradira.structfile import dump_extension, dump_scenario


def _q_name(u, mu):
    return f"q{mu}_{u[1:]}"


def _red_q22():
    return reduced_canonical(2, 2, momentum_name=_q_name)


def _canonical(builder, name):
    return {f"{name}({n},{k})": (lambda n=n, k=k: builder(n, k))
            for n, k in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)]}


BUILDERS = {
    **_canonical(extended_canonical, "ext"),
    **_canonical(reduced_canonical, "red"),
    "red-q(2,2)": _red_q22,
    "ym(3,su2)": lambda: yang_mills(3, "su2"),
    "ym(3,su2,+--)": lambda: yang_mills(3, "su2", signature=(1, -1, -1)),
    "ym(3,abelian,2)": lambda: yang_mills(3, "abelian", dim=2),
    "ym(2,su2)": lambda: yang_mills(2, "su2"),
}

DIGESTS = {
    "ext(1,1)":
        "f13c951a564332b7eff14940ab17bc92def366096c5c4af97a47e8e9d10eaaf9",
    "ext(2,1)":
        "01e073d1502fabcaf6b163eed3a8a9c5e7262ae837204b3a7407b848bdb850a3",
    "ext(2,2)":
        "b90ef95239c5a02daf89827998b68f48b3b2b076ef32b0d05f38ed878b4f416a",
    "ext(3,1)":
        "e0473d6115c7c9fac064800c3b960e7178ce867714b38b0cf5ca8ea19afec52c",
    "ext(3,2)":
        "4d176423e9861771e15520f442dee65bf55f14038b21bebffe9c1f9071269a06",
    "ext(3,3)":
        "1456b80913bfbc76e33cf273a7d9597cf2c820387e078b04c06a4670b0cac755",
    "ext(4,1)":
        "5df30190410fcd26614c99064981f938c53582a02ad736e350f2f4665a705daf",
    "red(1,1)":
        "d1c0e5f0c1f09d03506436bf63f3d1f424bc048305e1f708456601b93adffcd2",
    "red(2,1)":
        "ee1ace419575518578c9a499ae792d6316e9351b085955fdbe858b79c6140fe8",
    "red(2,2)":
        "760e9475e701031146274d073de8d55e65a2323dd7a9dd5532eba955184e63d2",
    "red(3,1)":
        "098fd3928f5e0cac27aa6ff87fb9750eeaa7e97892f62d49fad08cb583795600",
    "red(3,2)":
        "3db2a65aca427bcd7d105f0b25216646d4ed3da4e65a6cec182a8c3b1789d4f0",
    "red(3,3)":
        "f216166263230110e9bbb268c1e4ea492a9af5a24734debfb482d319cda5a6a4",
    "red(4,1)":
        "1afec884a98b381829c041e5222d043414100b4d3081e98f840fe4edb539731e",
    "red-q(2,2)":
        "e8a8fff0091bc683c014e0fd495143ecc8ff6ca4b391eee1d5ce73e0c272b38c",
    "ym(2,su2)":
        "ab117dd90f82a5238265fddfd0699a0f25af0df79c09158fb8705d3e21df7ab6",
    "ym(3,abelian,2)":
        "84a5ed3337a0bea5f4a0dbfd99f870c223b8f93411d67fed39028bab1ba04cbe",
    "ym(3,su2)":
        "afe1fe57cc3d9be80bb762ac507a075f5ebd50a49d63d78ce04baa66366abcbc",
    "ym(3,su2,+--)":
        "d3fdbbce6045db28d7bde0aa7bd059af21225f73f82784c13d85c6cde03b588b",
}

EXTENSION_SCENARIOS = {
    "red(2,1)": lambda: reduced_canonical(2, 1),
    "red(3,3)": lambda: reduced_canonical(3, 3),
    "red-q(2,2)": _red_q22,
}

EXTENSION_DIGESTS = {
    "red(2,1) symmetric":
        "8c55580691f5334531d64794726186db4d0b4cf563291fe631cb14bd30974064",
    "red(2,1) solved":
        "533816bee971962a279067d5ae87892040d6cf244458471705996a3cc704c7c1",
    "red(3,3) symmetric":
        "c7b12c2de47e25f4a29a386e7aabbf90dd697d98c921147c916f50b973b9a632",
    "red(3,3) solved":
        "2d736ce946f4931974c8feb1ccc68a00878893cd4331d7ad67c8a3fba33c72cd",
    "red-q(2,2) symmetric":
        "f51545c61bd345f778cd40b3d8fcf72b2f70ba53d0b0648dd41381dc965419a3",
    "red-q(2,2) solved":
        "578413b4506b2b263222c256aede96c789c4c5918f62837619a07d771d5194a3",
}


def _scenario_text(scn):
    structure = scn.structure
    tower = {
        a: [[render_form(g) for g in structure.generators(a)],
            [render_mv(v) for v in structure.sharp_values(a)]]
        for a in range(1, structure.n + 1)
    }
    generators = [[label, render_form(f)] for label, f in scn.hamiltonian_generators]
    return json.dumps([json.dumps(dump_scenario(scn), sort_keys=True), tower, generators])


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(BUILDERS))
def test_builder_digest(case):
    assert _sha(_scenario_text(BUILDERS[case]())) == DIGESTS[case]


@pytest.mark.parametrize("style", ["symmetric", "solved"])
@pytest.mark.parametrize("case", sorted(EXTENSION_SCENARIOS))
def test_extension_table_digest(case, style):
    table = canonical_extension_table(EXTENSION_SCENARIOS[case](), style)
    assert _sha(dump_extension(table)) == EXTENSION_DIGESTS[f"{case} {style}"]
