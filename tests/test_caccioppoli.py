"""The Caccioppoli report pinned to recorded values, and its memory bound.

The values were recorded with the full-grid implementation that predates the
support-box one.  The 48 cases that moved past 1e-12 when mirrored runs began to
step at the bound of the half grid (by up to 3.6e-5 relative) were re-recorded
with the support-box one; every case must agree to a relative 1e-12.
"""

import itertools
import tracemalloc

import pytest

import anisofast as af
from anisofast.lemmas import CutoffSpec, caccioppoli_report

# name -> (center along every axis, inner and outer half-width)
CUTOFFS = {
    "centred": ((0.0, 0.0), 0.15, 0.3),
    "off_centre": ((0.12, -0.08), 0.1, 0.25),
    # the ramps of test_caccioppoli_flat_interior_cutoff, parked at the edge
    "near_boundary": ((0.0, 0.0), 0.496, 0.4999),
}
# fixture -> window name -> (t1, t2)
WINDOWS = {
    "run_1d_fast": {"short": (0.02, 0.05), "whole": (0.0, 0.4)},
    "run_2d_aniso": {"short": (0.01, 0.02), "whole": (0.0, 0.08)},
}
LEVELS = {"k0": 0.0, "k_quarter": 0.25, "k_above": 1.01}  # fractions of the initial sup
CS = (0.0, 0.5)


def _cutoff(prof, name):
    center, inner, outer = CUTOFFS[name]
    center = center[: prof.N]
    return CutoffSpec(
        inner=af.CubeSpec(center, (inner,) * prof.N, "standard", inner),
        outer=af.CubeSpec(center, (outer,) * prof.N, "standard", outer),
        exponents=prof.p,
    )


def _case_ids():
    for fixture, windows in WINDOWS.items():
        for cut, win, level, C in itertools.product(CUTOFFS, windows, LEVELS, CS):
            yield f"{fixture}-{cut}-{win}-{level}-C{C}"


def _report(traj, case):
    fixture, cut, win, level, C = case.split("-")
    prof = traj.exponents
    k = LEVELS[level] * traj.initial.sup()
    return caccioppoli_report(
        traj, prof, _cutoff(prof, cut), k, WINDOWS[fixture][win], C=float(C[1:])
    )


def _measured(rep):
    terms = rep.rhs_terms
    return (
        rep.lhs,
        terms["gradient"],
        terms["time"],
        terms["inhomogeneity"],
        rep.gamma_min,
        rep.snapshots_in_window,
    )


# case -> (lhs, gradient, time, inhomogeneity, gamma_min, snapshots_in_window)
PINNED = {
    'run_1d_fast-centred-short-k0-C0.0': (0.13561987355228894, 0.07548561071795172, 2.4, 0.0, 0.054785159309795314, 16),
    'run_1d_fast-centred-short-k0-C0.5': (0.13561987355228894, 0.07703605465884958, 2.4, 0.006363961030678928, 0.054610563217957216, 16),
    'run_1d_fast-centred-short-k_quarter-C0.0': (0.03621101263381289, 0.019116886142746512, 2.4, 0.0, 0.014968690781845984, 16),
    'run_1d_fast-centred-short-k_quarter-C0.5': (0.03621101263381289, 0.019509539259108023, 2.4, 0.005430580079512686, 0.014932745078954406, 16),
    'run_1d_fast-centred-short-k_above-C0.0': (0.0, 0.0, 2.4, 0.0, 0.0, 16),
    'run_1d_fast-centred-short-k_above-C0.5': (0.0, 0.0, 2.4, 0.0, 0.0, 16),
    'run_1d_fast-centred-whole-k0-C0.0': (0.07973845674159721, 0.24897704613084118, 2.4, 0.0, 0.030101603506933024, 201),
    'run_1d_fast-centred-whole-k0-C0.5': (0.07973845674159721, 0.2540909340483487, 2.4, 0.0848174584033264, 0.02911322516713348, 201),
    'run_1d_fast-centred-whole-k_quarter-C0.0': (0.013154262783501673, 0.0578545775238115, 2.4, 0.0, 0.005351928834111113, 201),
    'run_1d_fast-centred-whole-k_quarter-C0.5': (0.013154262783501673, 0.059042887167488615, 2.4, 0.013187541469129113, 0.005320807733426357, 201),
    'run_1d_fast-centred-whole-k_above-C0.0': (0.0, 0.0, 2.4, 0.0, 0.0, 201),
    'run_1d_fast-centred-whole-k_above-C0.5': (0.0, 0.0, 2.4, 0.0, 0.0, 201),
    'run_1d_fast-off_centre-short-k0-C0.0': (0.10362086574257912, 0.06175455234381848, 1.9999999999999998, 0.0, 0.050258584672352065, 16),
    'run_1d_fast-off_centre-short-k0-C0.5': (0.10362086574257912, 0.06302296589434385, 1.9999999999999998, 0.005303300858899108, 0.050098897552192316, 16),
    'run_1d_fast-off_centre-short-k_quarter-C0.0': (0.028232208603287186, 0.016858452553859805, 1.9999999999999998, 0.0, 0.013998111056102115, 16),
    'run_1d_fast-off_centre-short-k_quarter-C0.5': (0.028232208603287186, 0.017204718356924043, 1.9999999999999998, 0.004094148263070111, 0.013967359834568625, 16),
    'run_1d_fast-off_centre-short-k_above-C0.0': (0.0, 0.0, 1.9999999999999998, 0.0, 0.0, 16),
    'run_1d_fast-off_centre-short-k_above-C0.5': (0.0, 0.0, 1.9999999999999998, 0.0, 0.0, 16),
    'run_1d_fast-off_centre-whole-k0-C0.0': (0.0700977799760593, 0.20693804272919814, 2.0, 0.0, 0.031762459397987115, 201),
    'run_1d_fast-off_centre-whole-k0-C0.5': (0.0700977799760593, 0.2111884665045263, 2.0, 0.07066825171178356, 0.030719623811811283, 201),
    'run_1d_fast-off_centre-whole-k_quarter-C0.0': (0.010555663996141653, 0.05293859420358152, 2.0, 0.0, 0.00514173391544457, 201),
    'run_1d_fast-off_centre-whole-k_quarter-C0.5': (0.010555663996141653, 0.054025931536378295, 2.0, 0.010302545801887998, 0.0051133645212084015, 201),
    'run_1d_fast-off_centre-whole-k_above-C0.0': (0.0, 0.0, 2.0, 0.0, 0.0, 201),
    'run_1d_fast-off_centre-whole-k_above-C0.5': (0.0, 0.0, 2.0, 0.0, 0.0, 201),
    'run_1d_fast-near_boundary-short-k0-C0.0': (0.13776732443409476, 19.41712856726776, 3.999200000000001, 0.0, 0.005883387057810214, 16),
    'run_1d_fast-near_boundary-short-k0-C0.5': (0.13776732443409476, 19.418800569770873, 3.999200000000001, 0.01060448039745466, 0.005880304189647217, 16),
    'run_1d_fast-near_boundary-short-k_quarter-C0.0': (0.035881870736208986, 4.559919036322438, 3.999200000000001, 0.0, 0.004192238778773452, 16),
    'run_1d_fast-near_boundary-short-k_quarter-C0.5': (0.035881870736208986, 4.5603116894388, 3.999200000000001, 0.005430580079512686, 0.004189388510405799, 16),
    'run_1d_fast-near_boundary-short-k_above-C0.0': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 16),
    'run_1d_fast-near_boundary-short-k_above-C0.5': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 16),
    'run_1d_fast-near_boundary-whole-k0-C0.0': (0.06957928968271256, 65.25662525449181, 3.999200000000001, 0.0, 0.0010046705735875952, 201),
    'run_1d_fast-near_boundary-whole-k0-C0.5': (0.06957928968271256, 65.26224448085642, 3.999200000000001, 0.14121636598144363, 0.001002544986513766, 201),
    'run_1d_fast-near_boundary-whole-k_quarter-C0.0': (0.012935378757954884, 13.799956092185967, 3.999200000000001, 0.0, 0.0007267411269927378, 201),
    'run_1d_fast-near_boundary-whole-k_quarter-C0.5': (0.012935378757954884, 13.801144401829644, 3.999200000000001, 0.013187541469129113, 0.0007261546334061511, 201),
    'run_1d_fast-near_boundary-whole-k_above-C0.0': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 201),
    'run_1d_fast-near_boundary-whole-k_above-C0.5': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 201),
    'run_2d_aniso-centred-short-k0-C0.0': (0.0383615880005477, 0.016927978502851007, 1.4399999999999993, 0.0, 0.02633046284138791, 21),
    'run_2d_aniso-centred-short-k0-C0.5': (0.0383615880005477, 0.017280100629887045, 1.4399999999999993, 0.0025517020295549612, 0.026278087606163035, 21),
    'run_2d_aniso-centred-short-k_quarter-C0.0': (0.00940629423014705, 0.0033280044214755566, 1.4399999999999993, 0.0, 0.0065170870386578195, 21),
    'run_2d_aniso-centred-short-k_quarter-C0.5': (0.00940629423014705, 0.0033980616219240274, 1.4399999999999993, 0.0010487500263735613, 0.006512039179492719, 21),
    'run_2d_aniso-centred-short-k_above-C0.0': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 21),
    'run_2d_aniso-centred-short-k_above-C0.5': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 21),
    'run_2d_aniso-centred-whole-k0-C0.0': (0.03978497934355282, 0.06704573805855368, 1.4399999999999993, 0.0, 0.026399317777047498, 161),
    'run_2d_aniso-centred-whole-k0-C0.5': (0.03978497934355282, 0.06844458741620099, 1.4399999999999993, 0.020399661615965563, 0.026022911992989926, 161),
    'run_2d_aniso-centred-whole-k_quarter-C0.0': (0.009397877300275317, 0.014236211590191332, 1.4399999999999993, 0.0, 0.006462414582565542, 161),
    'run_2d_aniso-centred-whole-k_quarter-C0.5': (0.009397877300275317, 0.014532306702675746, 1.4399999999999993, 0.002826610514027656, 0.006448567466292791, 161),
    'run_2d_aniso-centred-whole-k_above-C0.0': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 161),
    'run_2d_aniso-centred-whole-k_above-C0.5': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 161),
    'run_2d_aniso-off_centre-short-k0-C0.0': (0.021298162267333116, 0.013033566625566869, 0.9999999999999999, 0.0, 0.021024142702672412, 21),
    'run_2d_aniso-off_centre-short-k0-C0.5': (0.021298162267333116, 0.01330392579807404, 0.9999999999999999, 0.0017720152983020574, 0.02098184126433844, 21),
    'run_2d_aniso-off_centre-short-k_quarter-C0.0': (0.005450710469254754, 0.0031018973749444134, 0.9999999999999999, 0.0, 0.005433855208049078, 21),
    'run_2d_aniso-off_centre-short-k_quarter-C0.5': (0.005450710469254754, 0.0031671177452945558, 0.9999999999999999, 0.0008355534513436513, 0.005428980047192733, 21),
    'run_2d_aniso-off_centre-short-k_above-C0.0': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 21),
    'run_2d_aniso-off_centre-short-k_above-C0.5': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 21),
    'run_2d_aniso-off_centre-whole-k0-C0.0': (0.024439654631119107, 0.05155501385190142, 0.9999999999999999, 0.0, 0.023241441778300655, 161),
    'run_2d_aniso-off_centre-whole-k0-C0.5': (0.024439654631119107, 0.05262710905852522, 0.9999999999999999, 0.01416327515244715, 0.02290951905157577, 161),
    'run_2d_aniso-off_centre-whole-k_quarter-C0.0': (0.005614800067142107, 0.013115344464377194, 0.9999999999999999, 0.0, 0.00554211334160632, 161),
    'run_2d_aniso-off_centre-whole-k_quarter-C0.5': (0.005614800067142107, 0.0133878045467999, 0.9999999999999999, 0.0022917543995212724, 0.005528121559290777, 161),
    'run_2d_aniso-off_centre-whole-k_above-C0.0': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 161),
    'run_2d_aniso-off_centre-whole-k_above-C0.5': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 161),
    'run_2d_aniso-near_boundary-short-k0-C0.0': (0.041796530332463576, 4.664202503723024, 3.9984001599999983, 0.0, 0.004824939103752015, 21),
    'run_2d_aniso-near_boundary-short-k0-C0.5': (0.041796530332463576, 4.664575673714916, 3.9984001599999983, 0.007085226252253393, 0.004820788463123217, 21),
    'run_2d_aniso-near_boundary-short-k_quarter-C0.0': (0.009461683144111074, 0.8572845616927522, 3.9984001599999983, 0.0, 0.0019485785602679363, 21),
    'run_2d_aniso-near_boundary-short-k_quarter-C0.5': (0.009461683144111074, 0.8573546188932006, 3.9984001599999983, 0.0010487500263735609, 0.0019481296881317099, 21),
    'run_2d_aniso-near_boundary-short-k_above-C0.0': (0.0, 0.0, 3.998400159999999, 0.0, 0.0, 21),
    'run_2d_aniso-near_boundary-short-k_above-C0.5': (0.0, 0.0, 3.998400159999999, 0.0, 0.0, 21),
    'run_2d_aniso-near_boundary-whole-k0-C0.0': (0.04073871114019329, 19.020602481674047, 3.9984001599999983, 0.0, 0.0017697861099524419, 161),
    'run_2d_aniso-near_boundary-whole-k0-C0.5': (0.04073871114019329, 19.022141031086182, 3.9984001599999983, 0.05655451729198557, 0.0017653309435035646, 161),
    'run_2d_aniso-near_boundary-whole-k_quarter-C0.0': (0.009457247001595429, 3.7265755145653454, 3.9984001599999983, 0.0, 0.001224242949105151, 161),
    'run_2d_aniso-near_boundary-whole-k_quarter-C0.5': (0.009457247001595429, 3.7268716096778296, 3.9984001599999983, 0.0028266105140276557, 0.0012237482672109365, 161),
    'run_2d_aniso-near_boundary-whole-k_above-C0.0': (0.0, 0.0, 3.998400159999999, 0.0, 0.0, 161),
    'run_2d_aniso-near_boundary-whole-k_above-C0.5': (0.0, 0.0, 3.998400159999999, 0.0, 0.0, 161),
}

@pytest.mark.parametrize("case", list(_case_ids()))
def test_caccioppoli_report_pinned(case, request):
    traj = request.getfixturevalue(case.split("-")[0])
    got = _measured(_report(traj, case))
    want = PINNED[case]
    assert got[-1] == want[-1]
    assert got[:-1] == pytest.approx(want[:-1], rel=1e-12, abs=0.0)


# tracemalloc peak of the report on the whole 2D window, full-grid implementation
PEAK_BYTES_FULL_GRID = 198_474


def test_caccioppoli_peak_memory_whole_2d_window(run_2d_aniso):
    case = "run_2d_aniso-centred-whole-k_quarter-C0.5"
    _report(run_2d_aniso, case)  # warm-up: imports and caches are not the report's
    tracemalloc.start()
    try:
        _report(run_2d_aniso, case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES_FULL_GRID
