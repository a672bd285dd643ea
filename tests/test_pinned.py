"""Exact regression pins for the bound pipeline and the gap-function oracle.

The values were recorded from the implementation that evaluated every bound
term through the public, validating functions; the private kernels must
reproduce them bit for bit, so every comparison is == with no tolerance.  The
delta values cover the KS floor 1/(2N), a mid-range budget and the t_max
branch (delta >= 0.5).  The tiny-delta and verify pins were recorded from the
implementation that ran gamma_oracle one t at a time and searched a feasible
range collapsed to t = 0.  PUBLIC_NAMES pins the package surface, which
__init__ builds from each module's __all__.  The x_minus, peak and deformed-CDF
pins were recorded from the implementation that kept its own negative-side
critical-point formula and a second copy of the deformed CDF in gamma_oracle;
they cover both sides of the 1e-4 series switch, t = 0 and x = 0, +-12.
"""

import pytest

import spherecdf
from spherecdf import (BoundInputs, corollary_bound, f_minus, f_plus, gamma_closed,
                       gamma_oracle, lambda_concentration_bound, optimize_split,
                       p_value_bound, phi_deformed, theorem_bound, verify_lemmas, x_minus)

PUBLIC_NAMES = [
    'BoundBreakdown', 'BoundInputs', 'CheckResult', 'DomainError',
    'EmpiricalCdfView', 'GapEvaluation', 'KsResult', 'LambdaTrialReport',
    'LaurentMassartBound', 'MonteCarloReport', 'OptimizedBound', 'RngStream',
    'SphereSample', 'TANGENT_SLOPE', 'TrialConfig', 'VerificationReport', '__version__',
    'alpha', 'alpha_prime', 'build_ecdf', 'check_tube_inflation', 'chisq_tail_lower',
    'chisq_tail_upper', 'corollary_bound', 'dkw_bound', 'f_minus', 'f_minus_prime',
    'f_plus', 'g_minus', 'g_plus', 'gamma_closed', 'gamma_oracle', 'gaussian_vector',
    'ks_to_normal', 'lambda_concentration_bound', 'lambda_of', 'lm_lower', 'lm_upper',
    'optimize_split', 'p_value_bound', 'phi_deformed', 'rescale_cdf', 'run_chisq_trials',
    'run_dkw_trials', 'run_lambda_trials', 'run_theorem_trials', 'secant_interval',
    'sphere_sample', 'std_normal_cdf', 'theorem_bound', 'verify_lemmas',
    'wilson_interval', 'x_minus', 'x_plus',
]

OPTIMIZE_PINS = [
    # (N, delta, mode, best_epsilon, best_t, best_total)
    (1, 0.5, 'exact_gamma', 0.2314499677224695, 0.713188753541252, 2.7194624474302858),
    (1, 0.5, 'corollary', 0.5, 0.0, 3.213061319425267),
    (1, 0.05, 'exact_gamma', 1.258576576290693e-13, 0.1872862367231184, 3.935144358417101),
    (1, 0.05, 'corollary', 4.4738518445441855e-13, 0.09999999999910524, 3.9886445720555788),
    (1, 0.75, 'exact_gamma', 0.49306510192579966, 0.6931303027789316, 2.176182186273034),
    (1, 0.75, 'corollary', 0.75, 0.0, 2.6493049347166995),
    (100, 0.005, 'exact_gamma', 2.668932783111977e-13, 0.020452346631458236, 3.9195706041870477),
    (100, 0.005, 'corollary', 4.8871323654609e-13, 0.009999999999022574, 3.988644572057586),
    (100, 0.05, 'exact_gamma', 1.258576576290693e-13, 0.1872862367231184, 2.1322389917761373),
    (100, 0.05, 'corollary', 0.05, 0.0, 3.213061319425267),
    (100, 0.75, 'exact_gamma', 0.2909239785398855, 0.9649897521467911, 1.181065280978474e-06),
    (100, 0.75, 'corollary', 0.26850179610141023, 0.9629964077971795, 3.2636570242766877e-06),
    (10000, 5e-05, 'exact_gamma', 1.748656354807511e-13, 0.0002066152198540184, 3.999146561412279),
    (10000, 5e-05, 'corollary', 5.235205037491461e-13, 9.9999998952959e-05, 3.999885942601098),
    (10000, 0.05, 'exact_gamma', 0.03615798004797095, 0.055614622478270474, 1.2551726266499706e-11),
    (10000, 0.05, 'corollary', 0.01866402915756725, 0.0626719416848655, 0.005877235959713407),
    (10000, 0.75, 'exact_gamma', 0.5953193811145937, 0.4843749999995156, 0.0),
    (10000, 0.75, 'corollary', 0.38574218750036426, 0.7285156249992715, 0.0),
    (1000000000, 5e-10, 'exact_gamma', 2.857300363530469e-13, 2.065184583520205e-09, 3.9999999914700246),
    (1000000000, 5e-10, 'corollary', 4.0869259819576705e-13, 9.991826148036085e-10, 3.999999998861238),
    (1000000000, 0.05, 'exact_gamma', 0.04973432031953402, 0.0010973802933012108, 0.0),
    (1000000000, 0.05, 'corollary', 0.04882812500000757, 0.0023437499999848666, 0.0),
    (1000000000, 0.75, 'exact_gamma', 0.7495269389549971, 0.001953124999998047, 0.0),
    (1000000000, 0.75, 'corollary', 0.748046875000002, 0.003906249999996094, 0.0),
]

P_VALUE_PINS = [
    (1, 0.5, 1.0),
    (1, 0.05, 1.0),
    (1, 0.75, 1.0),
    (100, 0.005, 1.0),
    (100, 0.05, 1.0),
    (100, 0.75, 1.181065280978474e-06),
    (10000, 5e-05, 1.0),
    (10000, 0.05, 1.2551726266499706e-11),
    (10000, 0.75, 0.0),
    (1000000000, 5e-10, 1.0),
    (1000000000, 0.05, 0.0),
    (1000000000, 0.75, 0.0),
]

ORACLE_PINS = [
    (0.01, 'plus', 0.002431866578099129),
    (0.01, 'minus', 0.002431866578099129),
    (0.5, 'plus', 0.16133728441738437),
    (0.5, 'minus', 0.16133728441738437),
    (0.99, 'plus', 0.486691281908221),
    (0.99, 'minus', 0.4866912819082209),
]

# verify_lemmas(200): the two checks that run gamma_oracle, as (residual, where)
VERIFY_ORACLE_PINS = {
    "gap-symmetry": (1.6653345369377348e-16, 0.029849246231155778),
    "gamma-closed-vs-oracle": (2.220446049250313e-16, 0.02),
}

GAMMA_NEAR_ONE = (0.49999999999698164, 7.433682904052987e-12)

BOUND_PINS = [
    # (N, epsilon, t, theorem terms, corollary terms, lambda bound); terms are
    # (threshold, dkw, gplus, gminus, total)
    (1, 0.3, 0.5, (0.46133728441738425, 1.670540422822544, 0.9257412659243828, 0.508075945039717, 3.104357633786644),
     (0.55, 1.670540422822544, 0.9654545521978378, 0.7788007830714049, 3.414795758091787), 1.4338172109640999),
    (100, 0.1, 0.2, (0.15377136375284142, 0.2706705664732254, 0.09689717267500662, 0.005310329916802697, 0.37287806906503473),
     (0.2, 0.2706705664732254, 0.569782824730923, 0.01831563888873418, 0.8587690300928826), 0.10220750259180932),
    (10000, 0.02, 0.05, (0.0324087551631632, 0.0006709252558050237, 4.1249596605775497e-10, 3.4385061503664756e-12, 0.0006709256717394959),
     (0.045, 0.0006709252558050237, 0.02972921638615875, 1.3887943864964021e-11, 0.030400141655851715), 4.1593447220812146e-10),
    (1000000000, 0.0001, 0.001, (0.00034209177040446227, 4.122307244877116e-09, 0.0, 0.0, 4.122307244877116e-09),
     (0.0006000000000000001, 4.122307244877116e-09, 8.459378991221227e-62, 0.0, 4.122307244877116e-09), 0.0),
    (50, 0.05, 0.999999999999, (0.5499999999969817, 1.5576015661428098, 0.0008838263069391931, 0.0, 1.558485392449749),
     (0.5499999999995, 1.5576015661428098, 0.000883826306947478, 1.9287498481567962e-22, 1.5584853924497573), 0.0008838263069391931),
]


X_MINUS_PINS = [
    (1e-12, -1.0000000000005),
    (1e-06, -1.0000004999997916),
    (9.9999e-05, -1.0000499974168124),
    (0.0001, -1.0000499979167707),
    (0.00010001, -1.0000500029163542),
    (0.01, -1.0049792702654914),
    (0.1, -1.0480154377417716),
    (0.25, -1.1134120513942958),
    (0.5, -1.2081698511340992),
    (0.75, -1.2891428585018831),
    (0.9, -1.3324975912602772),
    (0.99, -1.3569117167376983),
    (0.999999999999, -1.3595559868914815),
]

PEAK_PINS = [
    # (t, f_minus(t), f_plus(t))
    (-0.99, -0.4866912819082209, -0.1602574692511165),
    (-0.9, -0.3991079704561624, -0.15020501032634337),
    (-0.5, -0.16133728441738432, -0.09679004632150945),
    (-0.25, -0.06913481601170157, -0.05377136375284153),
    (-0.1, -0.02547060475563545, -0.02304483222470355),
    (-0.00010001, -2.4200702315235745e-05, -2.4198282124077153e-05),
    (-0.0001, -2.419828236605026e-05, -2.4195862658671352e-05),
    (-9.9999e-05, -2.419804037107065e-05, -2.4195620712097465e-05),
    (-1e-06, -2.4197084552701753e-07, -2.419706035539093e-07),
    (0.0, 0.0, 0.0),
    (1e-06, 2.419706035539093e-07, 2.419708454715064e-07),
    (9.9999e-05, 2.4195620712208488e-05, 2.419804037101514e-05),
    (0.0001, 2.4195862658726863e-05, 2.4198282366105772e-05),
    (0.00010001, 2.4198282124077153e-05, 2.4200702315235745e-05),
    (0.1, 0.023044832224703604, 0.02547060475563545),
    (0.25, 0.05377136375284147, 0.06913481601170157),
    (0.5, 0.09679004632150956, 0.16133728441738426),
    (0.9, 0.1502050103263433, 0.3991079704561623),
    (0.99, 0.16025746925111645, 0.486691281908221),
]

PHI_DEFORMED_PINS = [
    # (x, t, plus, minus)
    (-12.0, 0.0, 1.776482112077653e-33, 1.776482112077653e-33),
    (-12.0, 0.1, 5.214703332852256e-28, 7.40641277190706e-41),
    (-12.0, 0.5, 6.22096057427174e-16, 1.390392118549624e-127),
    (-12.0, 0.99, 8.190340113646049e-10, 0.0),
    (-3.0, 0.0, 0.0013498980316300933, 0.0013498980316300933),
    (-3.0, 0.1, 0.0031930116413535284, 0.0004290603331968372),
    (-3.0, 0.5, 0.022750131948179195, 9.865876450376946e-10),
    (-3.0, 0.99, 0.06583644548598727, 0.0),
    (-1.0, 0.0, 0.15865525393145707, 0.15865525393145707),
    (-1.0, 0.1, 0.18165107044344897, 0.13326026290250537),
    (-1.0, 0.5, 0.2524925375469229, 0.022750131948179195),
    (-1.0, 0.99, 0.3076535088197053, 0.0),
    (-0.25, 0.0, 0.4012936743170763, 0.4012936743170763),
    (-0.25, 0.1, 0.4101058393642264, 0.390591475433575),
    (-0.25, 0.5, 0.43381616738909634, 0.3085375387259869),
    (-0.25, 0.99, 0.4500131431842009, 3.056696706383953e-138),
    (0.0, 0.0, 0.5, 0.5),
    (0.0, 0.1, 0.5, 0.5),
    (0.0, 0.5, 0.5, 0.5),
    (0.0, 0.99, 0.5, 0.5),
    (0.25, 0.0, 0.5987063256829237, 0.5987063256829237),
    (0.25, 0.1, 0.609408524566425, 0.5898941606357736),
    (0.25, 0.5, 0.6914624612740131, 0.5661838326109037),
    (0.25, 0.99, 1.0, 0.5499868568157991),
    (1.0, 0.0, 0.8413447460685429, 0.8413447460685429),
    (1.0, 0.1, 0.8667397370974946, 0.818348929556551),
    (1.0, 0.5, 0.9772498680518208, 0.7475074624530771),
    (1.0, 0.99, 1.0, 0.6923464911802947),
    (3.0, 0.0, 0.9986501019683699, 0.9986501019683699),
    (3.0, 0.1, 0.9995709396668032, 0.9968069883586465),
    (3.0, 0.5, 0.9999999990134123, 0.9772498680518208),
    (3.0, 0.99, 1.0, 0.9341635545140128),
    (12.0, 0.0, 1.0, 1.0),
    (12.0, 0.1, 1.0, 1.0),
    (12.0, 0.5, 1.0, 0.9999999999999993),
    (12.0, 0.99, 1.0, 0.9999999991809659),
]

@pytest.mark.parametrize("N, delta, mode, eps, t, total", OPTIMIZE_PINS)
def test_optimize_split(N, delta, mode, eps, t, total):
    opt = optimize_split(N, delta, mode)
    assert (opt.best_epsilon, opt.best_t, opt.best_total) == (eps, t, total)


@pytest.mark.parametrize("N", [1, 100, 10**4, 10**9])
@pytest.mark.parametrize("delta", [1e-13, 1e-14, 2e-13])
def test_split_below_feasible_range(N, delta):
    # below delta of about 2.4e-13, t = 0 is the only exact_gamma split
    opt = optimize_split(N, delta)
    assert (opt.best_epsilon, opt.best_t, opt.best_total) == (delta, 0.0, 4.0)
    assert p_value_bound(N, delta) == 1.0


@pytest.mark.parametrize("N, delta, p", P_VALUE_PINS)
def test_p_value_bound(N, delta, p):
    assert p_value_bound(N, delta) == p


@pytest.mark.parametrize("t, side, value", ORACLE_PINS)
def test_gamma_oracle(t, side, value):
    assert gamma_oracle(t, side=side) == value


def test_verify_oracle_checks():
    got = {c.name: (c.residual, c.where) for c in verify_lemmas(200).checks
           if c.name in VERIFY_ORACLE_PINS}
    assert got == VERIFY_ORACLE_PINS


def test_gamma_closed_near_one():
    g = gamma_closed(1.0 - 1e-12)
    assert (g.gamma, g.maximizer_x) == GAMMA_NEAR_ONE


@pytest.mark.parametrize("N, eps, t, theorem, corollary, lam", BOUND_PINS)
def test_bounds(N, eps, t, theorem, corollary, lam):
    for b, pin in ((theorem_bound(BoundInputs(N, eps, t)), theorem),
                   (corollary_bound(N, eps, t), corollary)):
        assert (b.threshold, b.dkw_term, b.gplus_term, b.gminus_term, b.total) == pin
    assert lambda_concentration_bound(N, t) == lam


def test_public_surface():
    assert sorted(spherecdf.__all__) == PUBLIC_NAMES
    assert len(set(spherecdf.__all__)) == len(spherecdf.__all__)
    for name in spherecdf.__all__:
        assert hasattr(spherecdf, name), name


@pytest.mark.parametrize("t, value", X_MINUS_PINS)
def test_x_minus(t, value):
    assert x_minus(t) == value


@pytest.mark.parametrize("t, minus, plus", PEAK_PINS)
def test_peak_heights(t, minus, plus):
    assert (f_minus(t), f_plus(t)) == (minus, plus)


@pytest.mark.parametrize("x, t, plus, minus", PHI_DEFORMED_PINS)
def test_phi_deformed(x, t, plus, minus):
    assert (phi_deformed(x, t, "plus"), phi_deformed(x, t, "minus")) == (plus, minus)


def test_phi_deformed_grid():
    # the array path broadcasts one (x, t) grid and must equal the scalar pins
    x, t, plus, minus = (list(col) for col in zip(*PHI_DEFORMED_PINS))
    assert phi_deformed(x, t, "plus").tolist() == plus
    assert phi_deformed(x, t, "minus").tolist() == minus
