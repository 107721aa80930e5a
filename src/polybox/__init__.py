"""polybox: exact arithmetic over F_q[T] for curve/box experiments."""

from .boxcount import (ExponentScan, PointSet, ResidueProfile,
                       enumerate_box_points, exponent_scan, residue_stats)
from .curves import (BivarPoly, TransformMatrix, apply_transform, bivar,
                     count_points_mod, degree_stats,
                     find_full_degree_transform, is_smooth_weierstrass,
                     weil_window_check)
from .detmethod import (InterpolationProblem, OrdReport, TupleReport, WSet,
                        collision_count, interpolate_form,
                        max_points_on_wcurve, mean_distinct_identity,
                        monomials_up_to, proportional, tuple_report,
                        verify_ord_inequality, wset_determinant, wset_grid,
                        wset_linear)
from .elliptic import (ECPair, NinthWindowReport, PigeonInstance, SmallModel,
                       count_invariant_pairs, count_nlambda, extremal_count,
                       extremal_witnesses, invariant_congruent, iso_witness,
                       ninth_window_scan, ninth_window_tau_plan,
                       pigeonhole_multiplier, pigeonhole_oracle,
                       small_coeff_model)
from .errors import (BudgetExceededError, FullRankError, ParseError,
                     PolyboxError)
from .ffield import GF, FiniteField
from .grammar import curve_text, parse_curve, parse_poly, poly_text
from .intervals import Interval, zero_interval
from .poly import (NEG_INF, Poly, constant, frac_dist, is_irreducible,
                   monic_irreducibles, one, poly_gcd, random_irreducible,
                   sort_key, valuation, zero)
from .residues import ResidueRing

__version__ = "0.1.0"
