"""Quantum divergences, monotone Fisher metrics, optimal reverse tests, and
finite-n hypothesis-testing machinery, with a randomized verification harness.
"""

from .divergences import (DivergenceReport, dmax, fidelity_logdiv, kl,
                          measured_div_lower, rld_entropy, umegaki)
from .hypotest import (CopyPair, OneCopyPair, asymptotic_reverse_test,
                       state_conversion, stein_threshold)
from .linalg import EigenSystem, eigh, matrix_function, trace_norm
from .metrics import (MetricSpec, alpha_metric, bkm_metric, classical_fisher,
                      f_alpha, holevo_rld_bound, holevo_rld_minimizer,
                      integral_divergence, petz_metric, rld_matrix,
                      rld_metric, rld_operator, sld_metric,
                      sld_operator, sld_optimal_measurement, wy_metric)
from .reverse import (ReverseTest, optimal_reverse_test,
                      reverse_estimation_1param)
from .states import (ClassicalDistribution, DensityMatrix, Measurement,
                     Preparation, QuantumChannel, TangentDirection,
                     apply_channel, apply_channel_tangent, cq_apply, measure,
                     random_cptp, random_density, random_tangent, tensor_power)

__version__ = "0.1.0"
