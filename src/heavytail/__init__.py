"""Finite-sample tail approximations for empirical autocovariances and test
statistics of AR processes with heavy-tailed (Student-like) innovations."""

from .ar_quadform import (ArForm, ArModel, QuadForm, Statistic, ar_paths,
                          autocov_matrix, build_a, empirical_autocov,
                          power_sum, simulate_path, test_matrix)
from .ar2_regions import (a_col, closed_form_diag, diag_seq, region_grid,
                          region_membership)
from .monte_carlo import (McConfig, McEstimate, RiskRow, calibrate_risk,
                          run_tail_experiment, worker_count, write_risk_csv,
                          write_tail_csv)
from .student_dist import (StudentLaw, cdf, density, make_law,
                           normal_quantile, phi_inv_compose_s, quantile_tail,
                           s_inv_compose_phi_log, sample, survival,
                           tail_constant, upper_quantile)
from .tail_formulas import (DegeneracyClass, TailLaw, ar1_lower_tail,
                            ar1_upper_tail, classify, critical_value, evaluate,
                            statistic_tail, tail_law, test_stat_tail)

__version__ = "0.1.0"
