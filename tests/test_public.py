"""The top-level namespace: the submodules and the names they export."""

import strobetomo
from strobetomo import analysis, channels, matcore, reconstruct

#: The top-level names before ``__all__`` was read off the submodules, less
#: ``Spectrum``, since folded into ``SpectralReport``.
EARLIER_NAMES = """
analysis channels cli matcore reconstruct __version__
ObservableSpec OptimalityReport SpanReport SpectralReport optimality_report
random_admissible_observable span_check span_report spectral_report two_level_admissible
KrausFamily LindbladSpec ThreeLevelParams TwoLevelParams ValidityReport apply_kraus
closed_form_spectrum_three_level closed_form_spectrum_two_level embed_one_param gellmann
generator_from_lindblad generator_of generator_three_level generator_two_level kraus_at
kraus_vs_semigroup_deviation pauli three_level_family two_level_family validate_three_level
validate_two_level
ConditioningError NumericalFailure eigh propagate unvec vec
MeasurementRecord ReconstructionPlan ReconstructionResult TimeGrid default_time_grid evolve
execute expectation measure plan reconstruct_trajectory records_from_csv records_to_csv
simulate_records
""".split()


def test_all_is_the_submodules_and_their_exports():
    modules = ["analysis", "channels", "cli", "matcore", "reconstruct"]
    exported = [n for m in (analysis, channels, matcore, reconstruct) for n in m.__all__]
    assert strobetomo.__all__ == modules + exported + ["__version__"]
    assert len(set(strobetomo.__all__)) == len(strobetomo.__all__)


def test_every_name_resolves_to_its_submodule_object():
    for module in (analysis, channels, matcore, reconstruct):
        for name in module.__all__:
            assert getattr(strobetomo, name) is getattr(module, name)
    for name in strobetomo.__all__:
        getattr(strobetomo, name)


def test_no_earlier_name_left():
    assert len(EARLIER_NAMES) == 57
    assert set(EARLIER_NAMES) <= set(strobetomo.__all__)
