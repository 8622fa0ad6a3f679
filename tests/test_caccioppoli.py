"""The Caccioppoli report pinned to recorded values, and its memory bound.

The values were recorded with the full-grid implementation that predates the
support-box one; every case must still agree to a relative 1e-12.
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
    'run_1d_fast-centred-short-k0-C0.0': (0.13562160219072014, 0.07548563139061064, 2.4, 0.0, 0.054785857155040064, 16),
    'run_1d_fast-centred-short-k0-C0.5': (0.13562160219072014, 0.07703607575611657, 2.4, 0.006363961030678928, 0.05461125883133886, 16),
    'run_1d_fast-centred-short-k_quarter-C0.0': (0.03621227155246862, 0.01911717123985006, 2.4, 0.0, 0.014969209421926862, 16),
    'run_1d_fast-centred-short-k_quarter-C0.5': (0.03621227155246862, 0.019509830211990868, 2.4, 0.005430580079512686, 0.014933262441742031, 16),
    'run_1d_fast-centred-short-k_above-C0.0': (0.0, 0.0, 2.4, 0.0, 0.0, 16),
    'run_1d_fast-centred-short-k_above-C0.5': (0.0, 0.0, 2.4, 0.0, 0.0, 16),
    'run_1d_fast-centred-whole-k0-C0.0': (0.0797387525780866, 0.24897669961816035, 2.4, 0.0, 0.030101719124060487, 201),
    'run_1d_fast-centred-whole-k0-C0.5': (0.0797387525780866, 0.2540905804184374, 2.4, 0.0848174584033264, 0.02911333693861039, 201),
    'run_1d_fast-centred-whole-k_quarter-C0.0': (0.013154668769531306, 0.05785520368308264, 2.4, 0.0, 0.005352092649647996, 201),
    'run_1d_fast-centred-whole-k_quarter-C0.5': (0.013154668769531306, 0.05904352618781816, 2.4, 0.013187541469129113, 0.00532097057658879, 201),
    'run_1d_fast-centred-whole-k_above-C0.0': (0.0, 0.0, 2.4, 0.0, 0.0, 201),
    'run_1d_fast-centred-whole-k_above-C0.5': (0.0, 0.0, 2.4, 0.0, 0.0, 201),
    'run_1d_fast-off_centre-short-k0-C0.0': (0.10362202877959499, 0.061754769620558266, 1.9999999999999998, 0.0, 0.05025914347644042, 16),
    'run_1d_fast-off_centre-short-k0-C0.5': (0.10362202877959499, 0.06302318763386007, 1.9999999999999998, 0.005303300858899108, 0.050099454489463575, 16),
    'run_1d_fast-off_centre-short-k_quarter-C0.0': (0.02823322155083645, 0.016858824003286785, 1.9999999999999998, 0.0, 0.013998610718223697, 16),
    'run_1d_fast-off_centre-short-k_quarter-C0.5': (0.02823322155083645, 0.017205097435772154, 1.9999999999999998, 0.004094148263070111, 0.01396785835195576, 16),
    'run_1d_fast-off_centre-short-k_above-C0.0': (0.0, 0.0, 1.9999999999999998, 0.0, 0.0, 16),
    'run_1d_fast-off_centre-short-k_above-C0.5': (0.0, 0.0, 1.9999999999999998, 0.0, 0.0, 16),
    'run_1d_fast-off_centre-whole-k0-C0.0': (0.0700978997572069, 0.20693819852630635, 2.0, 0.0, 0.031762511430548944, 201),
    'run_1d_fast-off_centre-whole-k0-C0.5': (0.0700978997572069, 0.21118862550164416, 2.0, 0.07066825171178356, 0.030719674164143677, 201),
    'run_1d_fast-off_centre-whole-k_quarter-C0.0': (0.01055599679627501, 0.05293936353601168, 2.0, 0.0, 0.005141894097686944, 201),
    'run_1d_fast-off_centre-whole-k_quarter-C0.5': (0.01055599679627501, 0.054026716670585694, 2.0, 0.010302545801887998, 0.005113523791079702, 201),
    'run_1d_fast-off_centre-whole-k_above-C0.0': (0.0, 0.0, 2.0, 0.0, 0.0, 201),
    'run_1d_fast-off_centre-whole-k_above-C0.5': (0.0, 0.0, 2.0, 0.0, 0.0, 201),
    'run_1d_fast-near_boundary-short-k0-C0.0': (0.137767977398096, 19.417048764792973, 3.999200000000001, 0.0, 0.005883434993449259, 16),
    'run_1d_fast-near_boundary-short-k0-C0.5': (0.137767977398096, 19.418720760424325, 3.999200000000001, 0.01060448039745466, 0.005880352091391973, 16),
    'run_1d_fast-near_boundary-short-k_quarter-C0.0': (0.03588304227646442, 4.559987040060072, 3.999200000000001, 0.0, 0.004192342346126901, 16),
    'run_1d_fast-near_boundary-short-k_quarter-C0.5': (0.03588304227646442, 4.560379699032214, 3.999200000000001, 0.005430580079512686, 0.0041894920271112425, 16),
    'run_1d_fast-near_boundary-short-k_above-C0.0': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 16),
    'run_1d_fast-near_boundary-short-k_above-C0.5': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 16),
    'run_1d_fast-near_boundary-whole-k0-C0.0': (0.06957917249741086, 65.25638067359627, 3.999200000000001, 0.0, 0.0010046724295813747, 201),
    'run_1d_fast-near_boundary-whole-k0-C0.5': (0.06957917249741086, 65.2619998789001, 3.999200000000001, 0.14121636598144363, 0.0010025468313942505, 201),
    'run_1d_fast-near_boundary-whole-k_quarter-C0.0': (0.012935780864513725, 13.800105448914827, 3.999200000000001, 0.0, 0.0007267576199329947, 201),
    'run_1d_fast-near_boundary-whole-k_quarter-C0.5': (0.012935780864513725, 13.801293771419564, 3.999200000000001, 0.013187541469129113, 0.0007261711174295191, 201),
    'run_1d_fast-near_boundary-whole-k_above-C0.0': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 201),
    'run_1d_fast-near_boundary-whole-k_above-C0.5': (0.0, 0.0, 3.999200000000001, 0.0, 0.0, 201),
    'run_2d_aniso-centred-short-k0-C0.0': (0.03836158881537899, 0.016927978641726373, 1.4399999999999993, 0.0, 0.026330463398158487, 21),
    'run_2d_aniso-centred-short-k0-C0.5': (0.03836158881537899, 0.017280100771483026, 1.4399999999999993, 0.0025517020295549617, 0.02627808816178212, 21),
    'run_2d_aniso-centred-short-k_quarter-C0.0': (0.009406294744501345, 0.003328004609759222, 1.4399999999999993, 0.0, 0.006517087394174537, 21),
    'run_2d_aniso-centred-short-k_quarter-C0.5': (0.009406294744501345, 0.0033980618141168668, 1.4399999999999993, 0.0010487500263735609, 0.006512039534717102, 21),
    'run_2d_aniso-centred-short-k_above-C0.0': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 21),
    'run_2d_aniso-centred-short-k_above-C0.5': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 21),
    'run_2d_aniso-centred-whole-k0-C0.0': (0.03978498133287377, 0.06704573977590453, 1.4399999999999993, 0.0, 0.026399319066977858, 161),
    'run_2d_aniso-centred-whole-k0-C0.5': (0.03978498133287377, 0.06844458916927709, 1.4399999999999993, 0.020399661615965563, 0.026022913264342973, 161),
    'run_2d_aniso-centred-whole-k_quarter-C0.0': (0.009397877767652949, 0.014236211970302962, 1.4399999999999993, 0.0, 0.006462414902266832, 161),
    'run_2d_aniso-centred-whole-k_quarter-C0.5': (0.009397877767652949, 0.014532307090772679, 1.4399999999999993, 0.002826610514027655, 0.006448567785277331, 161),
    'run_2d_aniso-centred-whole-k_above-C0.0': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 161),
    'run_2d_aniso-centred-whole-k_above-C0.5': (0.0, 0.0, 1.4399999999999993, 0.0, 0.0, 161),
    'run_2d_aniso-off_centre-short-k0-C0.0': (0.021298162732836468, 0.013033566823469102, 0.9999999999999999, 0.0, 0.02102414315807946, 21),
    'run_2d_aniso-off_centre-short-k0-C0.5': (0.021298162732836468, 0.013303925999939084, 0.9999999999999999, 0.0017720152983020574, 0.020981841718755525, 21),
    'run_2d_aniso-off_centre-short-k_quarter-C0.0': (0.00545071077284126, 0.003101897551828402, 0.9999999999999999, 0.0, 0.005433855509738614, 21),
    'run_2d_aniso-off_centre-short-k_quarter-C0.5': (0.00545071077284126, 0.003167117925848091, 0.9999999999999999, 0.0008355534513436513, 0.005428980348592613, 21),
    'run_2d_aniso-off_centre-short-k_above-C0.0': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 21),
    'run_2d_aniso-off_centre-short-k_above-C0.5': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 21),
    'run_2d_aniso-off_centre-whole-k0-C0.0': (0.02443965591844138, 0.05155501539870737, 0.9999999999999999, 0.0, 0.023241442968321393, 161),
    'run_2d_aniso-off_centre-whole-k0-C0.5': (0.02443965591844138, 0.05262711063740371, 0.9999999999999999, 0.01416327515244715, 0.022909520224393732, 161),
    'run_2d_aniso-off_centre-whole-k_quarter-C0.0': (0.005614800371387266, 0.013115344823555653, 0.9999999999999999, 0.0, 0.005542113639948018, 161),
    'run_2d_aniso-off_centre-whole-k_quarter-C0.5': (0.005614800371387266, 0.013387804913521033, 0.9999999999999999, 0.0022917543995212724, 0.005528121856843168, 161),
    'run_2d_aniso-off_centre-whole-k_above-C0.0': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 161),
    'run_2d_aniso-off_centre-whole-k_above-C0.5': (0.0, 0.0, 0.9999999999999999, 0.0, 0.0, 161),
    'run_2d_aniso-near_boundary-short-k0-C0.0': (0.04179653094247605, 4.66420252239194, 3.998400159999999, 0.0, 0.004824939163772786, 21),
    'run_2d_aniso-near_boundary-short-k0-C0.5': (0.04179653094247605, 4.664575692384785, 3.998400159999999, 0.007085226252253393, 0.004820788523100762, 21),
    'run_2d_aniso-near_boundary-short-k_quarter-C0.0': (0.009461683661029348, 0.8572846110932044, 3.998400159999999, 0.0, 0.001948578646899921, 21),
    'run_2d_aniso-near_boundary-short-k_quarter-C0.5': (0.009461683661029348, 0.8573546682975619, 3.998400159999999, 0.0010487500263735609, 0.001948129774746736, 21),
    'run_2d_aniso-near_boundary-short-k_above-C0.0': (0.0, 0.0, 3.998400159999999, 0.0, 0.0, 21),
    'run_2d_aniso-near_boundary-short-k_above-C0.5': (0.0, 0.0, 3.998400159999999, 0.0, 0.0, 21),
    'run_2d_aniso-near_boundary-whole-k0-C0.0': (0.040738712674413625, 19.020602802691222, 3.998400159999999, 0.0, 0.0017697861519216183, 161),
    'run_2d_aniso-near_boundary-whole-k0-C0.5': (0.040738712674413625, 19.022141352128074, 3.998400159999999, 0.05655451729198557, 0.0017653309854271735, 161),
    'run_2d_aniso-near_boundary-whole-k_quarter-C0.0': (0.009457247470723885, 3.7265756127516054, 3.998400159999999, 0.0, 0.001224242994273528, 161),
    'run_2d_aniso-near_boundary-whole-k_quarter-C0.5': (0.009457247470723885, 3.7268717078720757, 3.998400159999999, 0.002826610514027655, 0.0012237483123660828, 161),
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
