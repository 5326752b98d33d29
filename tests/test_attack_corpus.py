"""The scored red-team corpus: every attack × every preset.

Each corpus entry declares the verdicts each wrapper preset is allowed
to produce (``Attack.expected``); this suite executes the full matrix
and fails on any deviation.  Two clauses are unconditional regardless
of the tables:

* an ``escaped`` verdict under a gated preset (``security``,
  ``hardened``) is a hard failure — the paper's central claim;
* benign inputs must pass through every preset byte-identically (no
  false positives purchased by the containment).
"""

import pytest

from repro.apps import app_by_name
from repro.apps.base import run_app
from repro.libc import standard_registry
from repro.linker import DynamicLinker, SharedLibrary
from repro.manpages import load_corpus
from repro.robust import RobustAPIDocument
from repro.security.corpus import (
    BENIGN_INPUTS,
    CORPUS,
    GATED_PRESETS,
    PRESET_CONFIGS,
    VERDICTS,
    attack_by_name,
    run_attack,
)
from repro.wrappers import WrapperFactory
from repro.wrappers.presets import default_generator_registry
from tests.oracles.wrappers import interpreted_wrappers

ATTACK_NAMES = [attack.name for attack in CORPUS]
PRESET_NAMES = list(PRESET_CONFIGS)


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


@pytest.fixture(scope="module")
def api_document(registry):
    return RobustAPIDocument.build(registry, load_corpus())


# ----------------------------------------------------------------------
# corpus shape
# ----------------------------------------------------------------------

class TestCorpusShape:
    def test_at_least_six_attack_classes(self):
        classes = {attack.attack_class for attack in CORPUS}
        assert len(classes) >= 6, sorted(classes)

    def test_every_attack_names_a_class_and_description(self):
        for attack in CORPUS:
            assert attack.attack_class, attack.name
            assert attack.description, attack.name

    def test_expected_tables_cover_every_preset(self):
        for attack in CORPUS:
            for preset in PRESET_NAMES:
                allowed = attack.expected_verdicts(preset)
                assert allowed, (attack.name, preset)
                assert set(allowed) <= set(VERDICTS)

    def test_gated_presets_never_expect_escape(self):
        for attack in CORPUS:
            for preset in GATED_PRESETS:
                assert "escaped" not in attack.expected_verdicts(preset)

    def test_names_unique_and_resolvable(self):
        assert len(set(ATTACK_NAMES)) == len(ATTACK_NAMES)
        for name in ATTACK_NAMES:
            assert attack_by_name(name).name == name

    def test_payloads_are_deterministic(self):
        for attack in CORPUS:
            assert attack.payload() == attack.payload(), attack.name


# ----------------------------------------------------------------------
# the full verdict matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("preset_name", PRESET_NAMES)
@pytest.mark.parametrize("attack_name", ATTACK_NAMES)
def test_verdict_matches_expected_table(attack_name, preset_name,
                                        registry, api_document):
    attack = attack_by_name(attack_name)
    preset = PRESET_CONFIGS[preset_name]
    run = run_attack(attack, preset, registry, api_document)
    allowed = attack.expected_verdicts(preset_name)
    assert run.verdict in allowed, (
        f"{attack_name} under {preset_name}: verdict {run.verdict!r} "
        f"(exception {run.exception or 'none'}) not in {allowed}"
    )
    if preset_name in GATED_PRESETS:
        assert not run.escaped, (
            f"ESCAPE under gated preset {preset_name}: {attack_name}"
        )


@pytest.mark.parametrize("attack_name", ATTACK_NAMES)
def test_backends_agree_on_every_verdict(attack_name, registry,
                                         api_document):
    attack = attack_by_name(attack_name)
    for preset_name, preset in PRESET_CONFIGS.items():
        if preset.spec is None:
            continue
        compiled = run_attack(attack, preset, registry, api_document)
        with interpreted_wrappers():
            interpreted = run_attack(attack, preset, registry,
                                     api_document)
        assert compiled.verdict == interpreted.verdict, (
            attack_name, preset_name)
        assert compiled.recoveries == interpreted.recoveries


def test_unwrapped_baseline_proves_the_attacks_work(registry):
    """Sanity for the whole corpus: without wrappers, every attack
    must do *something* observable — escape or crash the victim —
    otherwise the containment rows above are vacuous."""
    baseline = PRESET_CONFIGS["unwrapped"]
    for attack in CORPUS:
        run = run_attack(attack, baseline, registry, None)
        assert run.verdict in attack.expected_verdicts("unwrapped"), (
            attack.name, run.verdict)
        assert run.verdict != "contained", (
            f"{attack.name} is invisible without wrappers"
        )


# ----------------------------------------------------------------------
# no false positives on benign traffic
# ----------------------------------------------------------------------

def _run_benign(registry, api_document, app_name, stdin, spec, policy):
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    if spec is not None:
        factory = WrapperFactory(
            registry, api_document,
            generators=default_generator_registry(policy),
        )
        factory.preload(linker, spec)
    return run_app(app_by_name(app_name), linker, stdin=stdin)


@pytest.mark.parametrize("preset_name",
                         [p for p in PRESET_NAMES if p != "unwrapped"])
def test_benign_inputs_pass_every_preset(preset_name, registry,
                                         api_document):
    preset = PRESET_CONFIGS[preset_name]
    for app_name, stdin in sorted(BENIGN_INPUTS.items()):
        plain = _run_benign(registry, api_document, app_name, stdin,
                            None, None)
        assert not plain.crashed and plain.status == 0, app_name
        wrapped = _run_benign(registry, api_document, app_name, stdin,
                              preset.spec, preset.policy())
        assert not wrapped.crashed, (preset_name, app_name,
                                     wrapped.exception)
        assert wrapped.status == 0, (preset_name, app_name)
        assert wrapped.stdout == plain.stdout, (preset_name, app_name)
